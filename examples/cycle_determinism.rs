//! Demonstrates the paper's headline property (§1, §5): *cycle
//! determinism*. Two traced runs of the same parallel program produce
//! bit-identical event streams — "at cycle 467171, core 55, hart 2 sends
//! a memory request..." holds for every run.
//!
//! ```text
//! cargo run --example cycle_determinism
//! ```

use lbp::kernels::matmul::{Matmul, Version};
use lbp::sim::{EventKind, Machine, Trace};

fn traced_run(mm: &Matmul) -> Result<(u64, Trace), Box<dyn std::error::Error>> {
    let image = mm.build();
    let mut machine = Machine::new(mm.config(), &image)?;
    machine.set_sink(Box::new(Trace::new()));
    let layout = mm.layout();
    for i in 0..layout.n {
        for k in 0..layout.m {
            machine.poke_shared(layout.x(i, k), 1)?;
        }
    }
    for k in 0..layout.m {
        for j in 0..layout.n {
            machine.poke_shared(layout.y(k, j), 1)?;
        }
    }
    let report = machine.run(100_000_000)?;
    let trace = machine.sink::<Trace>().expect("the sink attached above");
    Ok((report.stats.cycles, trace.clone()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mm = Matmul::new(16, Version::Tiled);
    println!("running the tiled matmul twice on a 4-core LBP, full tracing on...\n");
    let (cycles1, trace1) = traced_run(&mm)?;
    let (cycles2, trace2) = traced_run(&mm)?;

    println!("run 1: {cycles1} cycles, {} events", trace1.len());
    println!("run 2: {cycles2} cycles, {} events", trace2.len());
    assert_eq!(cycles1, cycles2);
    assert_eq!(trace1, trace2, "traces must be bit-identical");
    println!("traces are bit-identical.\n");

    println!("a few invariant statements, in the paper's style:");
    let mut shown = 0;
    for event in trace1.events() {
        if matches!(event.kind, EventKind::MemRead { .. }) {
            println!("  {}", event.describe());
            shown += 1;
            if shown == 3 {
                break;
            }
        }
    }
    for event in trace1.events().iter().rev() {
        if matches!(event.kind, EventKind::Exit) {
            println!("  {}", event.describe());
        }
    }
    println!("\nEvery statement above holds for any run of this program on this input.");
    Ok(())
}
