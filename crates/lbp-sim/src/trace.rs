//! Cycle-by-cycle event traces and streaming trace sinks.
//!
//! The paper's headline property is *cycle determinism*: "at cycle 467171,
//! core 55, hart 2 sends a memory request to load address 106688 from
//! memory bank 13" holds for every run of the same program on the same
//! data. The trace captures exactly such statements so tests can assert
//! bit-identical replay.
//!
//! A machine hands its events to the one [`TraceSink`] attached to it
//! (`Machine::set_sink`). [`Trace`] keeps them in memory, for the
//! determinism tests to compare; the streaming sinks write them in O(1)
//! memory: [`TextSink`] writes one [`Event::describe`] line per event,
//! [`JsonlSink`] one JSON object per line, and [`ChromeSink`] a Chrome
//! `trace_event` JSON file that opens directly in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev).

use std::any::Any;
use std::io::{self, Write};

use lbp_isa::HartId;

use crate::json::Json;

/// One machine event, stamped with the cycle it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The cycle the event occurred on.
    pub cycle: u64,
    /// The hart the event belongs to.
    pub hart: HartId,
    /// What happened.
    pub kind: EventKind,
}

/// The kinds of observable machine events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An instruction word was fetched at `pc`.
    Fetch {
        /// The fetch address.
        pc: u32,
    },
    /// An instruction at `pc` retired (committed in order).
    Commit {
        /// The instruction's address.
        pc: u32,
    },
    /// A memory read request left the hart.
    MemRead {
        /// The target address.
        addr: u32,
        /// The bank (core number) serving the request.
        bank: u32,
    },
    /// A memory write request left the hart.
    MemWrite {
        /// The target address.
        addr: u32,
        /// The bank (core number) serving the request.
        bank: u32,
        /// The value written.
        value: u32,
    },
    /// A memory response (or write ack) was written back.
    MemResp {
        /// The original request address.
        addr: u32,
    },
    /// A hart was allocated by `p_fc`/`p_fn`.
    Fork {
        /// The allocated hart.
        child: HartId,
    },
    /// A start pc was delivered to an allocated hart (by `p_jal`/`p_jalr`).
    Start {
        /// The continuation address the hart starts fetching at.
        pc: u32,
    },
    /// A join address was delivered, resuming a waiting hart.
    Join {
        /// The resumption address.
        pc: u32,
    },
    /// The ending-hart signal was forwarded to the team successor.
    EndSignal,
    /// A `p_swre` value was delivered to a result-buffer slot.
    ResultDelivered {
        /// The slot number.
        slot: u32,
        /// The value.
        value: u32,
    },
    /// The hart ended (`p_ret` types 1 and 4) and became free.
    HartEnd,
    /// The machine exited (`p_ret` type 3).
    Exit,
}

impl EventKind {
    /// The event's stable machine-readable name (the `kind` field of the
    /// JSONL encoding and the Chrome event name).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Fetch { .. } => "fetch",
            EventKind::Commit { .. } => "commit",
            EventKind::MemRead { .. } => "mem_read",
            EventKind::MemWrite { .. } => "mem_write",
            EventKind::MemResp { .. } => "mem_resp",
            EventKind::Fork { .. } => "fork",
            EventKind::Start { .. } => "start",
            EventKind::Join { .. } => "join",
            EventKind::EndSignal => "end_signal",
            EventKind::ResultDelivered { .. } => "result",
            EventKind::HartEnd => "hart_end",
            EventKind::Exit => "exit",
        }
    }

    /// The kind-specific payload fields as `(key, value)` pairs.
    fn payload(&self) -> Vec<(String, Json)> {
        let pair = |k: &str, v: u32| (k.to_owned(), Json::U64(v as u64));
        match *self {
            EventKind::Fetch { pc } | EventKind::Commit { pc } => vec![pair("pc", pc)],
            EventKind::MemRead { addr, bank } => vec![pair("addr", addr), pair("bank", bank)],
            EventKind::MemWrite { addr, bank, value } => {
                vec![pair("addr", addr), pair("bank", bank), pair("value", value)]
            }
            EventKind::MemResp { addr } => vec![pair("addr", addr)],
            EventKind::Fork { child } => vec![pair("child", child.global())],
            EventKind::Start { pc } => vec![pair("pc", pc)],
            EventKind::Join { pc } => vec![pair("pc", pc)],
            EventKind::EndSignal | EventKind::HartEnd | EventKind::Exit => vec![],
            EventKind::ResultDelivered { slot, value } => {
                vec![pair("slot", slot), pair("value", value)]
            }
        }
    }
}

impl Event {
    /// Renders the event as one of the paper's invariant statements, e.g.
    /// "at cycle 467171, core 55, hart 2 sends a memory request to load
    /// address 106688 from memory bank 13".
    pub fn describe(&self) -> String {
        let head = format!(
            "at cycle {}, core {}, hart {}",
            self.cycle,
            self.hart.core(),
            self.hart.local()
        );
        match &self.kind {
            EventKind::Fetch { pc } => format!("{head} fetches the instruction at {pc:#x}"),
            EventKind::Commit { pc } => format!("{head} commits the instruction at {pc:#x}"),
            EventKind::MemRead { addr, bank } => format!(
                "{head} sends a memory request to load address {addr:#x} from memory bank {bank}"
            ),
            EventKind::MemWrite { addr, bank, value } => format!(
                "{head} sends a memory request to store {value} at address {addr:#x} in memory bank {bank}"
            ),
            EventKind::MemResp { addr } => {
                format!("{head} writes back the data received for {addr:#x}")
            }
            EventKind::Fork { child } => format!(
                "{head} allocates hart {} of core {}",
                child.local(),
                child.core()
            ),
            EventKind::Start { pc } => format!("{head} starts fetching at {pc:#x}"),
            EventKind::Join { pc } => format!("{head} resumes at {pc:#x} after a join"),
            EventKind::EndSignal => format!("{head} forwards the ending-hart signal"),
            EventKind::ResultDelivered { slot, value } => {
                format!("{head} receives {value} in result buffer {slot}")
            }
            EventKind::HartEnd => format!("{head} ends and becomes free"),
            EventKind::Exit => format!("{head} commits the exiting p_ret"),
        }
    }

    /// The JSONL encoding: a flat object with `cycle`, `core`, `hart`,
    /// `kind` and the kind-specific payload fields.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("cycle".to_owned(), Json::U64(self.cycle)),
            ("core".to_owned(), Json::U64(self.hart.core() as u64)),
            ("hart".to_owned(), Json::U64(self.hart.local() as u64)),
            ("kind".to_owned(), Json::Str(self.kind.name().to_owned())),
        ];
        pairs.extend(self.kind.payload());
        Json::Obj(pairs)
    }

    /// Decodes one JSONL object back into an event (the inverse of
    /// [`Event::to_json`]); `None` on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Option<Event> {
        let cycle = v.get("cycle")?.as_u64()?;
        let core = u32::try_from(v.get("core")?.as_u64()?).ok()?;
        let local = u32::try_from(v.get("hart")?.as_u64()?).ok()?;
        let field = |k: &str| -> Option<u32> { v.get(k)?.as_u64()?.try_into().ok() };
        let kind = match v.get("kind")?.as_str()? {
            "fetch" => EventKind::Fetch { pc: field("pc")? },
            "commit" => EventKind::Commit { pc: field("pc")? },
            "mem_read" => EventKind::MemRead {
                addr: field("addr")?,
                bank: field("bank")?,
            },
            "mem_write" => EventKind::MemWrite {
                addr: field("addr")?,
                bank: field("bank")?,
                value: field("value")?,
            },
            "mem_resp" => EventKind::MemResp {
                addr: field("addr")?,
            },
            "fork" => EventKind::Fork {
                child: HartId::new(field("child")?),
            },
            "start" => EventKind::Start { pc: field("pc")? },
            "join" => EventKind::Join { pc: field("pc")? },
            "end_signal" => EventKind::EndSignal,
            "result" => EventKind::ResultDelivered {
                slot: field("slot")?,
                value: field("value")?,
            },
            "hart_end" => EventKind::HartEnd,
            "exit" => EventKind::Exit,
            _ => return None,
        };
        Some(Event {
            cycle,
            hart: HartId::from_parts(core, local),
            kind,
        })
    }
}

/// A consumer of the machine's event stream.
///
/// The machine calls [`TraceSink::record`] once per event, in
/// deterministic order, and [`TraceSink::finish`] exactly once at the end
/// of the run. Streaming sinks buffer I/O errors internally and report
/// them from `finish` so the simulation hot path stays infallible. A sink
/// is [`Any`], so `Machine::sink` can hand the attached one back as its
/// own type.
pub trait TraceSink: Any {
    /// Consumes one event.
    fn record(&mut self, event: &Event);

    /// Flushes and finalizes the output (e.g. closes the Chrome JSON
    /// array).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the sink encountered, if any.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The in-memory [`TraceSink`]: every event it is handed, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for Trace {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Shared state of the streaming sinks: the writer plus the first error.
struct Stream<W: Write> {
    out: W,
    err: Option<io::Error>,
}

impl<W: Write> Stream<W> {
    fn new(out: W) -> Stream<W> {
        Stream { out, err: None }
    }

    fn write(&mut self, text: &str) {
        if self.err.is_none() {
            if let Err(e) = self.out.write_all(text.as_bytes()) {
                self.err = Some(e);
            }
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// Streams one [`Event::describe`] line per event.
pub struct TextSink<W: Write> {
    stream: Stream<W>,
}

impl<W: Write> TextSink<W> {
    /// Creates a sink writing to `out` (wrap files in a `BufWriter`).
    pub fn new(out: W) -> TextSink<W> {
        TextSink {
            stream: Stream::new(out),
        }
    }
}

impl<W: Write + 'static> TraceSink for TextSink<W> {
    fn record(&mut self, event: &Event) {
        let mut line = event.describe();
        line.push('\n');
        self.stream.write(&line);
    }

    fn finish(&mut self) -> io::Result<()> {
        self.stream.finish()
    }
}

/// Streams one JSON object per line (JSON Lines). The encoding is
/// [`Event::to_json`]; [`Event::from_json`] parses it back.
pub struct JsonlSink<W: Write> {
    stream: Stream<W>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink writing to `out` (wrap files in a `BufWriter`).
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            stream: Stream::new(out),
        }
    }
}

impl<W: Write + 'static> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        let mut line = String::new();
        event.to_json().write(&mut line);
        line.push('\n');
        self.stream.write(&line);
    }

    fn finish(&mut self) -> io::Result<()> {
        self.stream.finish()
    }
}

/// Streams a Chrome `trace_event` JSON file: every machine event becomes
/// a thread-scoped instant event with the cycle number as its timestamp,
/// `pid` = core and `tid` = hart. Open the file in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev) to see the per-hart activity of a
/// `parallel for` region on a timeline.
pub struct ChromeSink<W: Write> {
    stream: Stream<W>,
    started: bool,
    finished: bool,
}

impl<W: Write> ChromeSink<W> {
    /// Creates a sink writing to `out` (wrap files in a `BufWriter`).
    pub fn new(out: W) -> ChromeSink<W> {
        ChromeSink {
            stream: Stream::new(out),
            started: false,
            finished: false,
        }
    }
}

impl<W: Write + 'static> TraceSink for ChromeSink<W> {
    fn record(&mut self, event: &Event) {
        let mut line = String::new();
        line.push_str(if self.started {
            ",\n"
        } else {
            "{\"traceEvents\":[\n"
        });
        self.started = true;
        let mut args = vec![("describe".to_owned(), Json::Str(event.describe()))];
        args.extend(event.kind.payload());
        Json::obj([
            ("name", Json::Str(event.kind.name().to_owned())),
            ("ph", Json::Str("i".to_owned())),
            ("s", Json::Str("t".to_owned())),
            ("ts", Json::U64(event.cycle)),
            ("pid", Json::U64(event.hart.core() as u64)),
            ("tid", Json::U64(event.hart.local() as u64)),
            ("args", Json::Obj(args)),
        ])
        .write(&mut line);
        self.stream.write(&line);
    }

    fn finish(&mut self) -> io::Result<()> {
        if !self.finished {
            self.finished = true;
            if self.started {
                self.stream.write("\n],\"displayTimeUnit\":\"ns\"}\n");
            } else {
                self.stream
                    .write("{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}\n");
            }
        }
        self.stream.finish()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;

    /// A byte buffer a sink writes into and the test reads back.
    #[derive(Clone, Default)]
    struct Shared(Rc<RefCell<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().write(bytes)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.0.borrow().clone()).unwrap()
        }
    }

    #[test]
    fn describe_matches_the_papers_style() {
        let e = Event {
            cycle: 467171,
            hart: HartId::from_parts(55, 2),
            kind: EventKind::MemRead {
                addr: 106688,
                bank: 13,
            },
        };
        assert_eq!(
            e.describe(),
            "at cycle 467171, core 55, hart 2 sends a memory request to load \
             address 0x1a0c0 from memory bank 13"
        );
    }

    #[test]
    fn traces_compare_bitwise() {
        let fetch = Event {
            cycle: 1,
            hart: HartId::new(0),
            kind: EventKind::Fetch { pc: 0 },
        };
        let (mut a, mut b) = (Trace::new(), Trace::new());
        a.record(&fetch);
        b.record(&fetch);
        assert_eq!(a, b);
        b.record(&Event {
            cycle: 2,
            kind: EventKind::Exit,
            ..fetch
        });
        assert_ne!(a, b);
    }

    #[test]
    fn jsonl_roundtrips_an_event() {
        let e = Event {
            cycle: 9,
            hart: HartId::from_parts(3, 1),
            kind: EventKind::MemWrite {
                addr: 0x2000_0004,
                bank: 2,
                value: 42,
            },
        };
        let parsed = Json::parse(&e.to_json().to_string()).unwrap();
        assert_eq!(Event::from_json(&parsed), Some(e));
    }

    #[test]
    fn chrome_sink_emits_valid_json() {
        let buf = Shared::default();
        let mut sink = ChromeSink::new(buf.clone());
        sink.record(&Event {
            cycle: 1,
            hart: HartId::new(0),
            kind: EventKind::Fetch { pc: 0x40 },
        });
        sink.record(&Event {
            cycle: 2,
            hart: HartId::new(1),
            kind: EventKind::Exit,
        });
        sink.finish().unwrap();
        let v = Json::parse(&buf.text()).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("i"));
        assert_eq!(events[0].get("ts").and_then(|t| t.as_u64()), Some(1));
    }

    #[test]
    fn chrome_sink_strict_round_trip() {
        // A realistic stream: every event kind, out-of-order harts,
        // repeated cycles. The emitted file must be strict JSON — the
        // array properly closed, every string escaped, `ts` values
        // monotonically non-decreasing — so it always loads in
        // chrome://tracing.
        let h = |g| HartId::new(g);
        let kinds: Vec<(u64, HartId, EventKind)> = vec![
            (0, h(0), EventKind::Fetch { pc: 0x40 }),
            (1, h(0), EventKind::Commit { pc: 0x40 }),
            (1, h(1), EventKind::Fork { child: h(2) }),
            (2, h(2), EventKind::Start { pc: 0x80 }),
            (
                2,
                h(0),
                EventKind::MemRead {
                    addr: 0x1_0000,
                    bank: 3,
                },
            ),
            (
                3,
                h(0),
                EventKind::MemWrite {
                    addr: 0x1_0004,
                    bank: 3,
                    value: u32::MAX,
                },
            ),
            (4, h(0), EventKind::MemResp { addr: 0x1_0000 }),
            (5, h(2), EventKind::Join { pc: 0x44 }),
            (6, h(2), EventKind::EndSignal),
            (7, h(0), EventKind::Exit),
        ];
        let buf = Shared::default();
        let mut sink = ChromeSink::new(buf.clone());
        for (cycle, hart, kind) in &kinds {
            sink.record(&Event {
                cycle: *cycle,
                hart: *hart,
                kind: kind.clone(),
            });
        }
        sink.finish().unwrap();
        // finish() must be idempotent: a second call cannot emit a
        // second closing bracket.
        sink.finish().unwrap();
        let text = buf.text();
        assert_eq!(text.matches("\"traceEvents\"").count(), 1);
        assert!(text.ends_with("}\n"), "file is closed: {text:?}");
        let v = Json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), kinds.len());
        let mut last_ts = 0;
        for ev in events {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "event lacks `{key}`");
            }
            let ts = ev.get("ts").and_then(|t| t.as_u64()).unwrap();
            assert!(ts >= last_ts, "ts went backwards: {ts} after {last_ts}");
            last_ts = ts;
            // The describe strings round-trip through the escaper: what
            // the parser reads back must be exactly what was described.
            let describe = ev
                .get("args")
                .and_then(|a| a.get("describe"))
                .and_then(|d| d.as_str())
                .expect("args.describe is a string");
            assert!(describe.starts_with("at cycle "));
            let mut rewritten = String::new();
            Json::Str(describe.to_owned()).write(&mut rewritten);
            assert_eq!(Json::parse(&rewritten).unwrap().as_str(), Some(describe));
        }
        assert_eq!(last_ts, 7);
    }

    #[test]
    fn chrome_sink_escapes_hostile_strings() {
        // The sink writes strings through the shared Json escaper; prove
        // the pairing (writer escape → parser unescape) is lossless for
        // quotes, backslashes and control characters so no describe
        // string can ever corrupt the event array.
        let hostile = "he said \"hi\\\" then\n\tbeeped \u{1} and left";
        let mut out = String::new();
        Json::Str(hostile.to_owned()).write(&mut out);
        assert!(!out.contains('\n'), "raw newline would break JSONL: {out}");
        assert_eq!(Json::parse(&out).unwrap().as_str(), Some(hostile));
    }

    #[test]
    fn empty_chrome_trace_is_valid() {
        let buf = Shared::default();
        ChromeSink::new(buf.clone()).finish().unwrap();
        let v = Json::parse(&buf.text()).unwrap();
        assert_eq!(
            v.get("traceEvents").and_then(|e| e.as_arr()).unwrap().len(),
            0
        );
    }

    #[test]
    fn text_sink_streams_describe_lines() {
        let buf = Shared::default();
        let mut sink = TextSink::new(buf.clone());
        sink.record(&Event {
            cycle: 5,
            hart: HartId::new(0),
            kind: EventKind::HartEnd,
        });
        sink.finish().unwrap();
        assert_eq!(
            buf.text(),
            "at cycle 5, core 0, hart 0 ends and becomes free\n"
        );
    }
}
