//! Zero-cost-instrumentation property: observing a run changes nothing
//! observable.
//!
//! For every shipped example (assembly and C), a run with every observer
//! on and a plain run must agree bit for bit: identical run outcome,
//! identical serialized `lbp-stats-v1` report, identical final state. On
//! top of the identity, the profiled run's per-pc attribution must
//! partition exactly: per core, attributed retired plus attributed and
//! unattributed stalls equals machine cycles (the same exactness
//! invariant the six-bucket stall partition keeps at machine level).

use std::cell::RefCell;
use std::rc::Rc;

use lbp::sim::{ChromeSink, JsonlSink, LbpConfig, Machine, SimError, TextSink, TraceSink};

/// The budget is modest on purpose: `hung.s` deadlocks, and both runs
/// must reach the *same* error in reasonable time.
const MAX_CYCLES: u64 = 2_000_000;

fn image_of(path: &str) -> lbp::asm::Image {
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    lbp::asm::assemble(&source).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Runs to the end and renders how it ended: the exit flag or the error
/// text (a timeout means the test's budget is wrong, not the machine).
fn run_outcome(m: &mut Machine) -> String {
    match m.run(MAX_CYCLES) {
        Ok(report) => format!("exited={}", report.exited),
        Err(e @ SimError::Timeout { .. }) => panic!("budget too small: {e}"),
        Err(e) => format!("error={e}"),
    }
}

/// Exactness: the per-pc attribution partitions every core's cycles.
fn assert_exact_partition(path: &str, m: &Machine) {
    let prof = m.profile().expect("profiling was enabled");
    let stats = m.stats();
    for core in 0..prof.cores() {
        assert_eq!(
            prof.attributed_cycles(core),
            stats.cycles,
            "{path}: core {core} attribution does not sum to the cycle count"
        );
        let mut retired = 0;
        let mut stalls = 0;
        for (_, counters) in prof.per_pc(core) {
            retired += counters.retired;
            stalls += counters.stalls.total();
        }
        assert_eq!(
            retired,
            stats.retired_by_core(core),
            "{path}: core {core} attributed retired differs from stats"
        );
        assert_eq!(
            stalls + prof.unattributed(core).total(),
            stats.stalls_of_core(core).total(),
            "{path}: core {core} attributed stalls differ from stats"
        );
    }
}

/// A `Write` the test keeps a handle on after the sink moved into the
/// machine.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(bytes);
        Ok(bytes.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every shipped example with the machine sizes it is observed on, the
/// C examples as their committed listings; the `bool` says whether the
/// run ends on a whole cycle. On one core, fork2 trips the
/// fork-protocol check mid-cycle, and the machine treats an
/// erroring cycle as never having happened (the cycle counter is not
/// advanced), so the attribution only partitions whole cycles. On 16 and
/// 32 cores most cores never get a hart and sleep through the run: the
/// profiler is handed their idle slots in arrears.
const EXAMPLES: [(&str, usize, bool); 10] = [
    ("examples/asm/mul.s", 1, true),
    ("examples/asm/fork2.s", 2, true),
    ("examples/asm/hung.s", 1, true),
    ("examples/asm/fork2.s", 1, false),
    ("examples/asm/fork2.s", 16, true),
    ("tests/fixtures/compiled/hello_team.s", 2, true),
    ("tests/fixtures/compiled/matmul.s", 4, true),
    ("tests/fixtures/compiled/set_get.s", 4, true),
    ("tests/fixtures/compiled/reduce.s", 2, true),
    ("tests/fixtures/compiled/matmul.s", 32, true),
];

/// What a run leaves behind that an observer must not have changed.
struct Footprint {
    outcome: String,
    stats_json: String,
    arch_hash: u64,
    dynamic: Vec<u8>,
}

/// Runs with the interval sampler on (its samples are part of the report
/// and of the snapshot) and, when `observed`, with every observer at
/// once: a streaming sink, the profiler and the race witness.
fn footprint(image: &lbp::asm::Image, cores: usize, observed: bool) -> (Footprint, Machine, usize) {
    let cfg = LbpConfig::cores(cores).with_interval(500);
    let mut m = Machine::new(cfg, image).expect("machine builds");
    let streamed = SharedBuf::default();
    if observed {
        m.set_sink(Box::new(JsonlSink::new(streamed.clone())));
        m.enable_profiling();
        m.enable_race_witness();
    }
    let outcome = run_outcome(&mut m);
    m.finish_trace().expect("an in-memory sink cannot fail");
    let mut stats_json = String::new();
    m.stats().to_json().write(&mut stats_json);
    let print = Footprint {
        outcome,
        stats_json,
        arch_hash: m.arch_hash(),
        dynamic: m.snapshot().dynamic_bytes().to_vec(),
    };
    let streamed_bytes = streamed.0.borrow().len();
    (print, m, streamed_bytes)
}

#[test]
fn all_observers_on_is_bit_identical_to_all_off() {
    let shipped: usize = ["examples/c", "examples/asm"]
        .iter()
        .map(|dir| {
            std::fs::read_dir(format!("{}/{dir}", env!("CARGO_MANIFEST_DIR")))
                .unwrap_or_else(|e| panic!("{dir}: {e}"))
                .count()
        })
        .sum();
    let mut listed: Vec<&str> = EXAMPLES.iter().map(|&(path, ..)| path).collect();
    listed.sort_unstable();
    listed.dedup();
    assert_eq!(
        shipped,
        listed.len(),
        "EXAMPLES must list every shipped program"
    );
    for (path, cores, whole_cycles) in EXAMPLES {
        let image = image_of(&format!("{}/{path}", env!("CARGO_MANIFEST_DIR")));
        let (off, ..) = footprint(&image, cores, false);
        let (on, m, streamed) = footprint(&image, cores, true);
        assert_eq!(off.outcome, on.outcome, "{path}: outcome differs");
        assert_eq!(
            off.stats_json, on.stats_json,
            "{path}: lbp-stats-v1 differs"
        );
        assert_eq!(off.arch_hash, on.arch_hash, "{path}: arch_hash differs");
        assert!(
            off.dynamic == on.dynamic,
            "{path}: snapshot dynamic_bytes differ"
        );
        assert!(streamed > 0, "{path}: the sink saw no event");
        if whole_cycles {
            assert_exact_partition(path, &m);
        }
    }
}

/// FNV-1a-64 of every byte stream an observer emits, for two shipped
/// programs, computed at the commit *before* the profiler's own event
/// vocabulary was merged into `lbp_sim::Event`: the merge (and any later
/// change to the observation surface) is byte-preserving or this fails.
/// `name` is the program path exactly as `lbp-run` would be given it,
/// since `profile.json` records it: matmul's moved once, when its program
/// became the committed listing.
struct Pinned {
    name: &'static str,
    cores: usize,
    profile_json: u64,
    folded_txt: u64,
    timeline_json: u64,
    trace_text: u64,
    trace_jsonl: u64,
    trace_chrome: u64,
}

const PINNED: [Pinned; 2] = [
    Pinned {
        name: "tests/fixtures/compiled/matmul.s",
        cores: 4,
        profile_json: 0x8f32_3652_8786_4df7,
        folded_txt: 0x6d7c_a7ba_127f_b48c,
        timeline_json: 0xe8f5_f660_2253_8423,
        trace_text: 0x08fc_c0e7_53a7_40df,
        trace_jsonl: 0x5638_f1d8_5a5d_444d,
        trace_chrome: 0x46be_39cc_542e_744f,
    },
    Pinned {
        name: "examples/asm/fork2.s",
        cores: 4,
        profile_json: 0x7708_cb51_97a0_535d,
        folded_txt: 0x1445_1a9e_c8d8_4e67,
        timeline_json: 0x7c30_7b03_d156_d32e,
        trace_text: 0xc7b4_6a7f_ca22_df2e,
        trace_jsonl: 0x57a0_4386_350f_ed64,
        trace_chrome: 0x8d66_6090_1385_402d,
    },
];

/// One profiled, traced run; returns the stream the sink wrote.
fn traced(
    image: &lbp::asm::Image,
    cores: usize,
    sink: fn(SharedBuf) -> Box<dyn TraceSink>,
) -> (Machine, Vec<u8>) {
    let mut m = Machine::new(LbpConfig::cores(cores), image).expect("machine builds");
    let streamed = SharedBuf::default();
    m.set_sink(sink(streamed.clone()));
    m.enable_profiling();
    assert!(m.run(MAX_CYCLES).expect("the pinned programs exit").exited);
    m.finish_trace().expect("an in-memory sink cannot fail");
    let bytes = streamed.0.borrow().clone();
    (m, bytes)
}

#[test]
fn observer_output_bytes_are_pinned() {
    for pin in &PINNED {
        let image = image_of(&format!("{}/{}", env!("CARGO_MANIFEST_DIR"), pin.name));
        let (m, text) = traced(&image, pin.cores, |w| Box::new(TextSink::new(w)));
        let (_, jsonl) = traced(&image, pin.cores, |w| Box::new(JsonlSink::new(w)));
        let (_, chrome) = traced(&image, pin.cores, |w| Box::new(ChromeSink::new(w)));
        let prof = m.profile().expect("profiling was enabled");
        let sym = lbp::prof::SymTab::from_image(&image);
        let mut profile_json = String::new();
        lbp::prof::build_report(pin.name, m.stats(), prof, &sym).write_pretty(&mut profile_json);
        profile_json.push('\n');
        let folded = lbp::prof::folded_stacks(prof, &sym);
        let timeline = lbp::prof::timeline_json(prof, m.stats().cycles);
        let got = [
            (
                "profile.json",
                lbp::snap::fnv1a64(profile_json.as_bytes()),
                pin.profile_json,
            ),
            (
                "folded.txt",
                lbp::snap::fnv1a64(folded.as_bytes()),
                pin.folded_txt,
            ),
            (
                "timeline.json",
                lbp::snap::fnv1a64(timeline.as_bytes()),
                pin.timeline_json,
            ),
            ("text trace", lbp::snap::fnv1a64(&text), pin.trace_text),
            ("jsonl trace", lbp::snap::fnv1a64(&jsonl), pin.trace_jsonl),
            (
                "chrome trace",
                lbp::snap::fnv1a64(&chrome),
                pin.trace_chrome,
            ),
        ];
        for (what, hash, pinned) in got {
            assert_eq!(
                hash, pinned,
                "{}: {what} hashes to {hash:#018x}, pinned {pinned:#018x}",
                pin.name
            );
        }
    }
}

/// `profile.json` and `folded.txt` of base matmul on 16 harts, whose
/// cores sleep with live harts (waiting for a start pc or the join), and
/// the profiler is handed those cycles' stall slots in one piece, as the
/// commit before such cores slept computed them (6ccfa35).
const PINNED_BASE16: (u64, u64) = (0x5e07_9391_f4f5_303d, 0x849e_3517_fb8d_9a15);

#[test]
fn blocked_sleepers_are_blamed_per_pc_as_when_every_core_ticked() {
    use lbp::kernels::matmul::{Matmul, Version};
    let mm = Matmul::new(16, Version::Base);
    let mut plain = mm.machine().expect("machine builds");
    let plain_outcome = run_outcome(&mut plain);
    let mut m = mm.machine().expect("machine builds");
    m.enable_profiling();
    assert_eq!(run_outcome(&mut m), plain_outcome);
    assert_eq!(
        plain.stats().to_json().to_string(),
        m.stats().to_json().to_string()
    );
    assert_exact_partition("base matmul h=16", &m);
    let prof = m.profile().expect("profiling was enabled");
    let sym = lbp::prof::SymTab::from_image(&mm.build());
    let mut profile_json = String::new();
    lbp::prof::build_report("base matmul h=16", m.stats(), prof, &sym)
        .write_pretty(&mut profile_json);
    let folded = lbp::prof::folded_stacks(prof, &sym);
    let got = (
        lbp::snap::fnv1a64(profile_json.as_bytes()),
        lbp::snap::fnv1a64(folded.as_bytes()),
    );
    assert_eq!(got, PINNED_BASE16, "{got:#018x?}");
}
