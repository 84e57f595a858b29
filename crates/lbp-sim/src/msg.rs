//! Messages travelling on the LBP interconnect.

use lbp_isa::HartId;

use crate::snapshot::{get_hart, put_hart, SnapError, SnapReader, SnapWriter};

/// A memory-network message (requests toward shared banks, responses back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetMsg {
    /// Read request from `hart` for `addr`.
    ReadReq {
        /// Target address.
        addr: u32,
        /// Requesting hart (routes the response; a hart has at most one
        /// outstanding load, so this is a sufficient tag).
        hart: HartId,
        /// Access size in bytes (1, 2 or 4).
        size: u8,
        /// Sign-extend the loaded value.
        signed: bool,
    },
    /// Write request.
    WriteReq {
        /// Target address.
        addr: u32,
        /// Value to store (low `size` bytes).
        value: u32,
        /// Access size in bytes.
        size: u8,
        /// Requesting hart (routes the ack).
        hart: HartId,
    },
    /// Load response.
    ReadResp {
        /// Original address.
        addr: u32,
        /// Loaded (extended) value.
        value: u32,
        /// Destination hart.
        hart: HartId,
    },
    /// Store acknowledgement (consumed by `p_syncm` accounting).
    WriteAck {
        /// Original address.
        addr: u32,
        /// Destination hart.
        hart: HartId,
    },
}

impl NetMsg {
    /// The core whose shared bank must serve this message, given the
    /// per-core shared-bank size — meaningful for requests only.
    pub fn dest_bank(&self, shared_bank_bytes: u32) -> Option<u32> {
        match self {
            NetMsg::ReadReq { addr, .. } | NetMsg::WriteReq { addr, .. } => {
                Some(crate::bank::shared_slot(*addr, shared_bank_bytes).0)
            }
            _ => None,
        }
    }

    /// The hart the message belongs to (the requester for requests, the
    /// destination for responses — the same hart either way).
    pub(crate) fn hart(&self) -> HartId {
        match *self {
            NetMsg::ReadReq { hart, .. }
            | NetMsg::WriteReq { hart, .. }
            | NetMsg::ReadResp { hart, .. }
            | NetMsg::WriteAck { hart, .. } => hart,
        }
    }

    /// The core the message is ultimately delivered to — meaningful for
    /// responses only.
    pub fn dest_core(&self) -> Option<u32> {
        match self {
            NetMsg::ReadResp { hart, .. } | NetMsg::WriteAck { hart, .. } => Some(hart.core()),
            _ => None,
        }
    }

    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        match *self {
            NetMsg::ReadReq {
                addr,
                hart,
                size,
                signed,
            } => {
                w.u8(0);
                w.u32(addr);
                put_hart(w, hart);
                w.u8(size);
                w.bool(signed);
            }
            NetMsg::WriteReq {
                addr,
                value,
                size,
                hart,
            } => {
                w.u8(1);
                w.u32(addr);
                w.u32(value);
                w.u8(size);
                put_hart(w, hart);
            }
            NetMsg::ReadResp { addr, value, hart } => {
                w.u8(2);
                w.u32(addr);
                w.u32(value);
                put_hart(w, hart);
            }
            NetMsg::WriteAck { addr, hart } => {
                w.u8(3);
                w.u32(addr);
                put_hart(w, hart);
            }
        }
    }

    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<NetMsg, SnapError> {
        match r.u8()? {
            0 => Ok(NetMsg::ReadReq {
                addr: r.u32()?,
                hart: get_hart(r)?,
                size: r.u8()?,
                signed: r.bool()?,
            }),
            1 => Ok(NetMsg::WriteReq {
                addr: r.u32()?,
                value: r.u32()?,
                size: r.u8()?,
                hart: get_hart(r)?,
            }),
            2 => Ok(NetMsg::ReadResp {
                addr: r.u32()?,
                value: r.u32()?,
                hart: get_hart(r)?,
            }),
            3 => Ok(NetMsg::WriteAck {
                addr: r.u32()?,
                hart: get_hart(r)?,
            }),
            other => Err(SnapError::Corrupt(format!("bad NetMsg tag {other}"))),
        }
    }
}

/// A message on the forward inter-core link or the backward line
/// (paper Fig. 9: blue arrows forward, magenta backward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreMsg {
    /// `p_fn`: ask the next core to allocate a hart.
    ForkReq {
        /// The requesting hart (receives the reply).
        from: HartId,
    },
    /// Reply to a `ForkReq` (travels backward).
    ForkReply {
        /// The requesting hart.
        to: HartId,
        /// The allocated hart.
        child: HartId,
    },
    /// Start pc delivered to an allocated hart (`p_jal`/`p_jalr`).
    Start {
        /// The hart to start.
        to: HartId,
        /// Its first fetch address.
        pc: u32,
    },
    /// A continuation value written by `p_swcv` into a next-core hart's
    /// cv frame.
    CvWrite {
        /// The hart whose frame is written.
        to: HartId,
        /// Byte offset within the cv frame.
        offset: u32,
        /// The value.
        value: u32,
        /// The writing hart (receives the ack).
        from: HartId,
    },
    /// Acknowledgement of a cross-core `CvWrite` (travels backward; feeds
    /// the writer's `p_syncm` accounting).
    CvAck {
        /// The writing hart.
        to: HartId,
    },
    /// The ending-hart signal a committing `p_ret` forwards to its team
    /// successor.
    EndSignal {
        /// The successor hart.
        to: HartId,
    },
    /// A join address sent by a type-4 `p_ret` to the team's join hart
    /// (travels backward).
    Join {
        /// The waiting hart.
        to: HartId,
        /// The address it resumes at.
        pc: u32,
    },
    /// A `p_swre` value for a result-buffer slot of a *prior* hart
    /// (travels backward).
    Result {
        /// The receiving hart.
        to: HartId,
        /// The result-buffer slot.
        slot: u32,
        /// The value.
        value: u32,
    },
}

impl CoreMsg {
    /// A compact human-readable description (crash dumps).
    pub fn describe(&self) -> String {
        match self {
            CoreMsg::ForkReq { from } => format!("ForkReq from hart {from}"),
            CoreMsg::ForkReply { to, child } => {
                format!("ForkReply(child {child}) to hart {to}")
            }
            CoreMsg::Start { to, pc } => format!("Start(pc {pc:#x}) to hart {to}"),
            CoreMsg::CvWrite {
                to, offset, from, ..
            } => {
                format!("CvWrite(offset {offset}) from hart {from} to hart {to}")
            }
            CoreMsg::CvAck { to } => format!("CvAck to hart {to}"),
            CoreMsg::EndSignal { to } => format!("EndSignal to hart {to}"),
            CoreMsg::Join { to, pc } => format!("Join(pc {pc:#x}) to hart {to}"),
            CoreMsg::Result { to, slot, value } => {
                format!("Result(slot {slot}, value {value:#x}) to hart {to}")
            }
        }
    }

    /// The core this message is addressed to.
    pub fn dest_core(&self) -> u32 {
        match self {
            CoreMsg::ForkReq { from } => from.core() + 1,
            CoreMsg::ForkReply { to, .. }
            | CoreMsg::Start { to, .. }
            | CoreMsg::CvWrite { to, .. }
            | CoreMsg::CvAck { to }
            | CoreMsg::EndSignal { to }
            | CoreMsg::Join { to, .. }
            | CoreMsg::Result { to, .. } => to.core(),
        }
    }

    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        match *self {
            CoreMsg::ForkReq { from } => {
                w.u8(0);
                put_hart(w, from);
            }
            CoreMsg::ForkReply { to, child } => {
                w.u8(1);
                put_hart(w, to);
                put_hart(w, child);
            }
            CoreMsg::Start { to, pc } => {
                w.u8(2);
                put_hart(w, to);
                w.u32(pc);
            }
            CoreMsg::CvWrite {
                to,
                offset,
                value,
                from,
            } => {
                w.u8(3);
                put_hart(w, to);
                w.u32(offset);
                w.u32(value);
                put_hart(w, from);
            }
            CoreMsg::CvAck { to } => {
                w.u8(4);
                put_hart(w, to);
            }
            CoreMsg::EndSignal { to } => {
                w.u8(5);
                put_hart(w, to);
            }
            CoreMsg::Join { to, pc } => {
                w.u8(6);
                put_hart(w, to);
                w.u32(pc);
            }
            CoreMsg::Result { to, slot, value } => {
                w.u8(7);
                put_hart(w, to);
                w.u32(slot);
                w.u32(value);
            }
        }
    }

    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<CoreMsg, SnapError> {
        match r.u8()? {
            0 => Ok(CoreMsg::ForkReq { from: get_hart(r)? }),
            1 => Ok(CoreMsg::ForkReply {
                to: get_hart(r)?,
                child: get_hart(r)?,
            }),
            2 => Ok(CoreMsg::Start {
                to: get_hart(r)?,
                pc: r.u32()?,
            }),
            3 => Ok(CoreMsg::CvWrite {
                to: get_hart(r)?,
                offset: r.u32()?,
                value: r.u32()?,
                from: get_hart(r)?,
            }),
            4 => Ok(CoreMsg::CvAck { to: get_hart(r)? }),
            5 => Ok(CoreMsg::EndSignal { to: get_hart(r)? }),
            6 => Ok(CoreMsg::Join {
                to: get_hart(r)?,
                pc: r.u32()?,
            }),
            7 => Ok(CoreMsg::Result {
                to: get_hart(r)?,
                slot: r.u32()?,
                value: r.u32()?,
            }),
            other => Err(SnapError::Corrupt(format!("bad CoreMsg tag {other}"))),
        }
    }
}
