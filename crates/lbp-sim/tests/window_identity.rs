//! The in-flight window is invisible.
//!
//! A hart's instruction table, reorder buffer and ready flags are three
//! bit words over one ring of instruction records. Nothing a caller can
//! look at may show it: under capacities that are not powers of two, with
//! an instruction table smaller than the reorder buffer, and over runs
//! long enough for the sequence numbers to wrap the smallest ring
//! thousands of times, every snapshot byte and every counter is what the
//! three separate containers of the commit before (f1d22eb) produced.
//! The pinned constants were computed there by running this same file.

use lbp_asm::Image;
use lbp_sim::{fnv1a64, EventKind, LbpConfig, Machine};
use lbp_snap::content_hash;

const MAX_CYCLES: u64 = 10_000_000;

/// `(rob_entries, it_entries, phys_regs)`.
type Shape = (usize, usize, usize);

const SHAPES: [Shape; 5] = [
    (2, 2, 34),
    (3, 3, 36),
    (5, 2, 40),
    (32, 32, 64),
    (64, 7, 64),
];

fn shaped(cores: usize, (rob, it, phys): Shape) -> LbpConfig {
    let mut cfg = LbpConfig::cores(cores);
    cfg.rob_entries = rob;
    cfg.it_entries = it;
    cfg.phys_regs = phys;
    cfg
}

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

fn row(name: &'static str, image: &Image, cores: usize, shape: Shape) -> Row {
    let mut whole = Machine::new(shaped(cores, shape), image).unwrap();
    let report = whole.run(MAX_CYCLES).unwrap();
    assert!(report.exited, "{name} {shape:?}");
    let end = report.stats.cycles;
    let mut half = Machine::new(shaped(cores, shape), image).unwrap();
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
    ("fork2.s", (2, 2, 34), 76, 0xfff1f05d6d6fde4a, 0x9422b839cefc0775, 0x0a239b7d0b7b6388),
    ("fork2.s", (3, 3, 36), 76, 0xb254b39c9bd46d78, 0xb3c07c0b7818e752, 0x0a239b7d0b7b6388),
    ("fork2.s", (5, 2, 40), 76, 0x2dcf98a540244b33, 0x7c9ad3ce66fee473, 0x0a239b7d0b7b6388),
    ("fork2.s", (32, 32, 64), 76, 0x4f5fb9af3903f277, 0x51fceb7268fb4c51, 0x0a239b7d0b7b6388),
    ("fork2.s", (64, 7, 64), 76, 0xce293e5e975324c0, 0x1a1ebd64b5134a0e, 0x0a239b7d0b7b6388),
    ("matmul.c", (2, 2, 34), 16640, 0xb03e62898c01d0ae, 0x8fc5dc2ef34ff4b1, 0xcc8037345c948268),
    ("matmul.c", (3, 3, 36), 16531, 0x0fc34a6c0041a080, 0xfa20db479d35e748, 0x102378b65a7402c1),
    ("matmul.c", (5, 2, 40), 16533, 0x45c7e7bcd8ee361b, 0x2d254e9acab75b09, 0x72144244aa18d3a5),
    ("matmul.c", (32, 32, 64), 16506, 0xfbeed5a5a8f9a30f, 0x87eff0048297cf5c, 0x65c6260d1732caa2),
    ("matmul.c", (64, 7, 64), 16600, 0x3b36bd6b40426d43, 0x2ba3d5a80587ac58, 0x95fb172b81dc9f86),
    ("sync_team", (2, 2, 34), 36610, 0xdccca3283baa9ba0, 0x1f26db925b42971d, 0xd4e3b43dd86258a0),
    ("sync_team", (3, 3, 36), 36608, 0x7b74d29f8561e7a5, 0x3b1ba97bd2392ea0, 0x2fc7f998f504eec1),
    ("sync_team", (5, 2, 40), 36608, 0x5b6a6391f1b58504, 0x75c32733ae00f92e, 0x2fc7f998f504eec1),
    ("sync_team", (32, 32, 64), 36608, 0x16b899a9bde08bf7, 0xfe34ed3ef70c0278, 0x2fc7f998f504eec1),
    ("sync_team", (64, 7, 64), 36608, 0x84928fe563e22eb6, 0x3256f53700b90eb7, 0x2fc7f998f504eec1),
];

#[test]
fn every_shape_ends_in_the_bytes_the_three_containers_did() {
    let programs = [
        ("fork2.s", fork2(), 2),
        (
            "matmul.c",
            lbp_cc::compile(&example("c/matmul.c")).unwrap().image,
            4,
        ),
        ("sync_team", sync_team(), 2),
    ];
    let mut got = Vec::new();
    for (name, image, cores) in &programs {
        for shape in SHAPES {
            got.push(row(name, image, *cores, shape));
        }
    }
    let listing: String = (got.iter())
        .map(|(name, shape, end, mid, last, stats)| {
            format!("    ({name:?}, {shape:?}, {end}, {mid:#018x}, {last:#018x}, {stats:#018x}),\n")
        })
        .collect();
    assert!(got == PINNED, "this commit computes:\n{listing}");
    // A reorder buffer of three entries is a ring of four slots, and a
    // member of the team retires enough to go round it thousands of times.
    let (name, image, cores) = &programs[2];
    let mut m = Machine::new(shaped(*cores, SHAPES[1]), image).unwrap();
    m.run(MAX_CYCLES).unwrap();
    let laps = m.stats().retired_per_hart.iter().max().unwrap() / 4;
    assert!(laps > 2_000, "{name}: {laps} laps");
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
    for shape in [(2, 2, 34), (32, 32, 64)] {
        let mut whole = Machine::new(shaped(1, shape).with_trace(), &image).unwrap();
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
        assert!(in_flight > Some(40), "{shape:?}: {in_flight:?}");
        whole.set_trace(false); // `cfg.trace` is snapshot payload
        let last = whole.snapshot();
        let mut stepped = Machine::new(shaped(1, shape), &image).unwrap();
        for cycle in 1..end {
            assert!(!stepped.run_to(cycle).unwrap());
            let paused = stepped.snapshot();
            let mut resumed = Machine::restore(&paused).unwrap();
            assert!(
                resumed.snapshot().as_bytes() == paused.as_bytes(),
                "{shape:?}: restored at {cycle}"
            );
            resumed.run(MAX_CYCLES).unwrap();
            assert!(
                resumed.snapshot().as_bytes() == last.as_bytes(),
                "{shape:?}: resumed from {cycle}"
            );
        }
    }
}
