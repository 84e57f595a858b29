//! The in-flight window is invisible.
//!
//! A hart's instruction table, reorder buffer and ready flags are three
//! bit words over one ring of instruction records. Nothing a caller can
//! look at may show it: over runs long enough for the sequence numbers to
//! wrap the ring hundreds of times, every snapshot byte and every counter
//! is what the three separate containers of an earlier commit (f1d22eb)
//! produced. The pinned constants were computed there by running this
//! same file, when the window's sizes were settings; the rows here are of
//! the one shape every hart now has: a 32-entry reorder buffer and
//! instruction table and 64 renaming registers.

use lbp_asm::Image;
use lbp_sim::{fnv1a64, EventKind, LbpConfig, Machine};
use lbp_snap::content_hash;

const MAX_CYCLES: u64 = 10_000_000;

/// `(rob_entries, it_entries, phys_regs)`, as the rows were pinned.
type Shape = (usize, usize, usize);

const SHAPE: Shape = (32, 32, 64);

fn example(path: &str) -> String {
    let path = format!("{}/../../examples/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn fork2() -> Image {
    lbp_asm::assemble(&example("asm/fork2.s")).unwrap()
}

/// Eight members on two cores: each sums a short loop, stores the sum,
/// drains its stores with a `p_syncm` and sends the sum backward with a
/// `p_swre`; the first hart collects the eight values with `p_lwre`s that
/// wait in the instruction table for their slot to fill.
fn sync_team() -> Image {
    lbp_omp::DetOmp::new(8)
        .data_space("sums", 32)
        .data_space("total", 4)
        .function(
            "work",
            "li   a2, 3000
             li   a3, 0
w_loop:
             add  a3, a3, a2
             addi a2, a2, -1
             bnez a2, w_loop
             add  a3, a3, a0
             la   a4, sums
             slli a5, a0, 2
             add  a4, a4, a5
             sw   a3, 0(a4)
             p_syncm
             lw   a3, 0(a4)
             p_swre a3, t1, 0
             p_ret",
        )
        .parallel_for("work")
        .collect_reduction(0, 8, lbp_omp::ReduceOp::Add, "total")
        .build()
        .unwrap()
}

/// One pinned run: the cycle it ends in, the content hash of the snapshot
/// at half that and at the end, and the hash of the final `lbp-stats-v1`.
type Row = (&'static str, Shape, u64, u64, u64, u64);

fn row(name: &'static str, image: &Image, cores: usize) -> Row {
    let shape = SHAPE;
    let mut whole = Machine::new(LbpConfig::cores(cores), image).unwrap();
    let report = whole.run(MAX_CYCLES).unwrap();
    assert!(report.exited, "{name} {shape:?}");
    let end = report.stats.cycles;
    let mut half = Machine::new(LbpConfig::cores(cores), image).unwrap();
    assert!(!half.run_to(end / 2).unwrap());
    let mid = content_hash(&half.snapshot());
    // The restored half reaches the same end as the uninterrupted run.
    let mut resumed = Machine::restore(&half.snapshot()).unwrap();
    resumed.run(MAX_CYCLES).unwrap();
    let last = whole.snapshot();
    assert!(
        resumed.snapshot().as_bytes() == last.as_bytes(),
        "{name} {shape:?}: resumed from cycle {}",
        end / 2
    );
    let stats = report.to_json().to_string();
    (
        name,
        shape,
        end,
        mid,
        content_hash(&last),
        fnv1a64(stats.as_bytes()),
    )
}

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("fork2.s", (32, 32, 64), 76, 0x4f5fb9af3903f277, 0x51fceb7268fb4c51, 0x0a239b7d0b7b6388),
    ("matmul.c", (32, 32, 64), 16506, 0xfbeed5a5a8f9a30f, 0x87eff0048297cf5c, 0x65c6260d1732caa2),
    ("sync_team", (32, 32, 64), 36608, 0x16b899a9bde08bf7, 0xfe34ed3ef70c0278, 0x2fc7f998f504eec1),
];

#[test]
fn the_window_ends_in_the_bytes_the_three_containers_did() {
    let programs = [
        ("fork2.s", fork2(), 2),
        (
            "matmul.c",
            lbp_cc::compile(&example("c/matmul.c")).unwrap().image,
            4,
        ),
        ("sync_team", sync_team(), 2),
    ];
    let got: Vec<Row> = (programs.iter())
        .map(|(name, image, cores)| row(name, image, *cores))
        .collect();
    let listing: String = (got.iter())
        .map(|(name, shape, end, mid, last, stats)| {
            format!("    ({name:?}, {shape:?}, {end}, {mid:#018x}, {last:#018x}, {stats:#018x}),\n")
        })
        .collect();
    assert!(got == PINNED, "this commit computes:\n{listing}");
    // A member of the team retires enough to go round the 32-slot ring
    // hundreds of times.
    let (name, image, cores) = &programs[2];
    let mut m = Machine::new(LbpConfig::cores(*cores), image).unwrap();
    m.run(MAX_CYCLES).unwrap();
    let laps = m.stats().retired_per_hart.iter().max().unwrap() / 32;
    assert!(laps > 200, "{name}: {laps} laps");
}

/// Four members on one core, the first of which spins while the others
/// end at once: their `p_ret`s issue and then sit in the reorder buffer
/// until the ending signal comes down the team.
fn waiting_team() -> Image {
    lbp_omp::DetOmp::new(4)
        .function(
            "work",
            "bnez a0, w_done
             li   a2, 30
w_spin:
             addi a2, a2, -1
             bnez a2, w_spin
w_done:
             p_ret",
        )
        .parallel_for("work")
        .build()
        .unwrap()
}

/// A `p_ret` is resolved at issue and acted on at commit, possibly many
/// cycles later. The window keeps the resolved pair once per hart and the
/// snapshot format keeps it per reorder-buffer entry: a snapshot taken on
/// any cycle in between — here, on every cycle of the run — restores to
/// the same bytes and runs to the uninterrupted run's.
#[test]
fn a_snapshot_on_every_cycle_of_a_p_ret_in_flight_resumes_to_the_same_bytes() {
    let image = waiting_team();
    let p_ret = image.symbol("w_done").unwrap();
    let mut whole = Machine::new(LbpConfig::cores(1).with_trace(), &image).unwrap();
    whole.run(MAX_CYCLES).unwrap();
    let end = whole.stats().cycles;
    // Some member's `p_ret` spends most of the spin in flight.
    let in_flight = (whole.trace().events().iter())
        .filter(|e| e.kind == EventKind::Commit { pc: p_ret })
        .map(|commit| {
            let fetch = (whole.trace().events().iter())
                .find(|e| e.hart == commit.hart && e.kind == EventKind::Fetch { pc: p_ret });
            commit.cycle - fetch.expect("fetched before it committed").cycle
        })
        .max();
    assert!(in_flight > Some(40), "{in_flight:?}");
    whole.set_trace(false); // `cfg.trace` is snapshot payload
    let last = whole.snapshot();
    let mut stepped = Machine::new(LbpConfig::cores(1), &image).unwrap();
    for cycle in 1..end {
        assert!(!stepped.run_to(cycle).unwrap());
        let paused = stepped.snapshot();
        let mut resumed = Machine::restore(&paused).unwrap();
        assert!(
            resumed.snapshot().as_bytes() == paused.as_bytes(),
            "restored at {cycle}"
        );
        resumed.run(MAX_CYCLES).unwrap();
        assert!(
            resumed.snapshot().as_bytes() == last.as_bytes(),
            "resumed from {cycle}"
        );
    }
}
