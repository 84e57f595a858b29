//! The LBP address map, shared by the assembler, compiler, runtime and
//! simulator.
//!
//! LBP has no virtual memory and no cache hierarchy; addresses map directly
//! onto physical banks (paper Fig. 13):
//!
//! - every core has a **code bank** holding a copy of the program image;
//! - every core has a **local bank** holding the stacks and
//!   continuation-value frames of its four harts, private to the core;
//! - every core contributes one **shared bank** slice to the global shared
//!   space; remote slices are reached through the r1/r2/r3 routers;
//! - an **I/O region** exposes the input/output controller mailboxes
//!   (paper Fig. 17).

/// Base address of the per-core code bank (read-only program image).
pub const CODE_BASE: u32 = 0x0000_0000;

/// Base address of the per-core local bank (hart stacks and cv frames).
pub const LOCAL_BASE: u32 = 0x4000_0000;

/// Bytes of every core's local bank: four 16 KiB hart stacks.
pub const LOCAL_BANK_BYTES: u32 = 64 * 1024;

/// Base address of the global shared memory (block-distributed over the
/// cores' shared banks).
pub const SHARED_BASE: u32 = 0x8000_0000;

/// Bytes of a core's shared bank unless a machine is configured with
/// another size: bank `k` begins at `SHARED_BASE + k * 64 KiB`.
pub const DEFAULT_SHARED_BANK_BYTES: u32 = 64 * 1024;

/// Base address of the memory-mapped I/O request ports.
pub const IO_BASE: u32 = 0xF000_0000;

/// Classification of an address by the bank region it falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Per-core code bank.
    Code,
    /// Per-core local bank (stacks).
    Local,
    /// Distributed shared memory.
    Shared,
    /// Memory-mapped I/O ports.
    Io,
}

impl Region {
    /// Classifies an address.
    pub fn of(addr: u32) -> Region {
        if addr >= IO_BASE {
            Region::Io
        } else if addr >= SHARED_BASE {
            Region::Shared
        } else if addr >= LOCAL_BASE {
            Region::Local
        } else {
            Region::Code
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_boundaries() {
        assert_eq!(Region::of(0), Region::Code);
        assert_eq!(Region::of(LOCAL_BASE - 4), Region::Code);
        assert_eq!(Region::of(LOCAL_BASE), Region::Local);
        assert_eq!(Region::of(SHARED_BASE - 4), Region::Local);
        assert_eq!(Region::of(SHARED_BASE), Region::Shared);
        assert_eq!(Region::of(IO_BASE - 4), Region::Shared);
        assert_eq!(Region::of(IO_BASE), Region::Io);
        assert_eq!(Region::of(u32::MAX), Region::Io);
    }
}
