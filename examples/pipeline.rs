//! Deterministic MPI-style pipeline (the paper's §8 perspective): four
//! concurrent team members connected by *ordered channels* — each sender
//! precedes its receiver in the sequential referential order, so values
//! only flow forward, and the whole pipeline replays cycle for cycle.
//!
//! ```text
//! cargo run --example pipeline
//! ```

use lbp::asm::Asm;
use lbp::isa::{OpImmKind, Reg};
use lbp::omp::{Channel, DetOmp};
use lbp::sim::{LbpConfig, Machine};

const STAGES: usize = 4;
const ITEMS: usize = 6;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One single-shot channel per (stage boundary, item).
    let chan = |s: usize, i: usize| Channel::new(format!("ch_{s}_{i}"));

    let mut program = DetOmp::new(STAGES).data_space("pipe_out", (ITEMS * 4) as u32);
    for s in 0..STAGES - 1 {
        for i in 0..ITEMS {
            program = program.data_space(format!("ch_{s}_{i}"), 8);
        }
    }

    for stage in 0..STAGES {
        let mut a = Asm::new();
        for item in 0..ITEMS {
            if stage == 0 {
                // Source: produce item^2 + 1.
                a.li(Reg::A2, (item * item + 1) as i64);
            } else {
                chan(stage - 1, item).emit_recv(&mut a, Reg::A2);
                // Transform: each stage adds 100*stage.
                a.op_imm(OpImmKind::Add, Reg::A2, Reg::A2, 100 * stage as i32);
            }
            if stage < STAGES - 1 {
                chan(stage, item).emit_send(&mut a, Reg::A2);
            } else {
                a.la(Reg::A3, "pipe_out")
                    .sw(Reg::A2, 4 * item as i32, Reg::A3);
            }
        }
        a.p_ret();
        program = program.function(format!("stage{stage}"), a.into_text());
    }
    let names: Vec<String> = (0..STAGES).map(|s| format!("stage{s}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let program = program.parallel_sections(&refs);

    let image = program.build()?;
    let mut machine = Machine::new(LbpConfig::cores(1), &image)?;
    let report = machine.run(10_000_000)?;

    println!("a {STAGES}-stage pipeline over {ITEMS} items, one hart per stage:");
    println!("(stage 0 produces i*i+1; stages 1-3 each add 100)\n");
    let out = image.symbol("pipe_out").unwrap();
    for i in 0..ITEMS as u32 {
        let got = machine.peek_shared(out + 4 * i)?;
        let want = (i * i + 1) + 600;
        println!("  item {i}: {got}");
        assert_eq!(got, want);
    }
    println!(
        "\ncycles: {} (exactly reproducible), retired: {}",
        report.stats.cycles,
        report.stats.retired()
    );
    println!("Values only flow forward in the sequential order — the paper's");
    println!("ordered-communicator rule — so the pipeline cannot deadlock or race.");
    Ok(())
}
