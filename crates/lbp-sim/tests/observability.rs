//! Integration tests for the observability layer: stall attribution,
//! streaming trace sinks, interval samples and the machine-readable
//! run report.

use std::cell::RefCell;
use std::rc::Rc;

use lbp_isa::HartId;
use lbp_omp::DetOmp;
use lbp_sim::{Event, EventKind, Json, JsonlSink, LbpConfig, Machine, RunReport, Trace, TraceSink};

/// A `Write` target the test keeps a handle to while the machine owns
/// the sink.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// An 8-member team on 2 cores doing a little ALU work and one shared
/// store each — exercises fork, start, join, memory and end events.
fn team_image() -> lbp_asm::Image {
    DetOmp::new(8)
        .data_space("out", 32)
        .function(
            "work",
            "la   a2, out
             slli a3, a0, 2
             add  a2, a2, a3
             li   a4, 20
w_loop:
             addi a3, a3, 3
             addi a4, a4, -1
             bnez a4, w_loop
             sw   a3, 0(a2)
             p_ret",
        )
        .parallel_for("work")
        .build()
        .expect("team program assembles")
}

fn run_with_cfg(cfg: LbpConfig, sink: Option<Box<dyn TraceSink>>) -> (Machine, RunReport) {
    let image = team_image();
    let mut m = Machine::new(cfg, &image).expect("machine");
    if let Some(sink) = sink {
        m.set_sink(sink);
    }
    let report = m.run(10_000_000).expect("run completes");
    m.finish_trace().expect("sink finishes");
    (m, report)
}

#[test]
fn describe_covers_every_event_kind() {
    let hart = HartId::from_parts(1, 2);
    let kinds: Vec<(EventKind, &[&str])> = vec![
        (EventKind::Fetch { pc: 0x40 }, &["fetches", "0x40"]),
        (EventKind::Commit { pc: 0x44 }, &["commits", "0x44"]),
        (
            EventKind::MemRead { addr: 96, bank: 3 },
            &["load", "0x60", "bank 3"],
        ),
        (
            EventKind::MemWrite {
                addr: 100,
                bank: 2,
                value: 7,
            },
            &["store 7", "0x64", "bank 2"],
        ),
        (EventKind::MemResp { addr: 96 }, &["writes back", "0x60"]),
        (
            EventKind::Fork {
                child: HartId::from_parts(2, 0),
            },
            &["allocates hart 0 of core 2"],
        ),
        (EventKind::Start { pc: 0x80 }, &["starts fetching", "0x80"]),
        (EventKind::Join { pc: 0x90 }, &["join", "0x90"]),
        (EventKind::EndSignal, &["ending-hart signal"]),
        (
            EventKind::ResultDelivered { slot: 1, value: 9 },
            &["receives 9", "result buffer 1"],
        ),
        (EventKind::HartEnd, &["ends and becomes free"]),
        (EventKind::Exit, &["exiting p_ret"]),
    ];
    for (kind, needles) in kinds {
        let e = Event {
            cycle: 123,
            hart,
            kind,
        };
        let text = e.describe();
        assert!(
            text.starts_with("at cycle 123, core 1, hart 2"),
            "describe must lead with time and place: {text}"
        );
        for needle in needles {
            assert!(
                text.to_lowercase().contains(needle),
                "describe of {:?} should mention `{needle}`: {text}",
                e.kind
            );
        }
    }
}

#[test]
fn jsonl_sink_round_trips_the_memory_trace() {
    let buf = SharedBuf::default();
    run_with_cfg(
        LbpConfig::cores(2),
        Some(Box::new(JsonlSink::new(buf.clone()))),
    );
    let (m, _) = run_with_cfg(LbpConfig::cores(2), Some(Box::new(Trace::new())));
    let bytes = buf.0.borrow();
    let text = std::str::from_utf8(&bytes).expect("jsonl is utf-8");
    let parsed: Vec<Event> = text
        .lines()
        .map(|line| {
            let json = Json::parse(line).expect("every line is valid JSON");
            Event::from_json(&json).expect("every line decodes to an event")
        })
        .collect();
    assert!(!parsed.is_empty());
    assert_eq!(
        parsed,
        m.sink::<Trace>().unwrap().events(),
        "the JSONL stream must decode to exactly the in-memory trace"
    );
}

#[test]
fn stats_json_is_bit_identical_across_runs() {
    let run = || {
        let (_, report) = run_with_cfg(LbpConfig::cores(2).with_interval(100), None);
        report.to_json().to_string()
    };
    let first = run();
    let second = run();
    assert!(first.contains("\"samples\""));
    assert_eq!(first, second, "stats JSON must be reproducible bit for bit");
}

#[test]
fn sink_choice_does_not_change_stats_or_exit() {
    let plain = run_with_cfg(LbpConfig::cores(2), None);
    let memory = run_with_cfg(LbpConfig::cores(2), Some(Box::new(Trace::new())));
    let jsonl = run_with_cfg(
        LbpConfig::cores(2),
        Some(Box::new(JsonlSink::new(SharedBuf::default()))),
    );
    let baseline = plain.1.to_json().to_string();
    for (name, (_, report)) in [("memory trace", memory), ("jsonl sink", jsonl)] {
        assert!(report.exited);
        assert_eq!(
            report.to_json().to_string(),
            baseline,
            "{name} must not perturb the simulation"
        );
    }
}

#[test]
fn stall_cycles_partition_every_core_cycle() {
    let (m, report) = run_with_cfg(LbpConfig::cores(2), None);
    let stats = m.stats();
    assert!(report.exited);
    for core in 0..2 {
        let stalls = stats.stalls_of_core(core);
        assert_eq!(
            stalls.total() + stats.retired_by_core(core),
            stats.cycles,
            "core {core}: every cycle must either retire or be attributed \
             to exactly one stall bucket ({stalls:?})"
        );
    }
}

#[test]
fn interval_samples_sum_to_totals() {
    let (m, report) = run_with_cfg(LbpConfig::cores(2).with_interval(64), None);
    let stats = m.stats();
    assert!(report.exited);
    assert!(!stats.samples.is_empty());
    let retired: u64 = stats.samples.iter().map(|s| s.retired).sum();
    let cycles: u64 = stats.samples.iter().map(|s| s.interval).sum();
    let hops: u64 = stats.samples.iter().map(|s| s.link_hops).sum();
    assert_eq!(retired, stats.retired());
    assert_eq!(cycles, stats.cycles);
    assert_eq!(hops, stats.link_hops);
    let mut stall_sum = 0;
    for s in &stats.samples {
        stall_sum += s.stalls.total();
    }
    assert_eq!(stall_sum, stats.stalls_total().total());
}
