//! The paper's §7 experiment from the command line: one matrix
//! multiplication version at one machine size.
//!
//! ```text
//! cargo run --release --example matmul_paper -- tiled 64
//! cargo run --release --example matmul_paper -- base 16
//! ```
//!
//! Sizes are hart counts (16 → 4-core LBP of Fig. 19, 64 → Fig. 20,
//! 256 → Fig. 21). Use `cargo run --release --bin figures -- all` to
//! regenerate the full figures.

use lbp::kernels::matmul::{Matmul, Version};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let version = match args.first().map(String::as_str) {
        Some("base") | None => Version::Base,
        Some("copy") => Version::Copy,
        Some("distributed") => Version::Distributed,
        Some("d+c") => Version::DistributedCopy,
        Some("tiled") => Version::Tiled,
        Some(other) => {
            eprintln!("unknown version `{other}` (base|copy|distributed|d+c|tiled)");
            std::process::exit(2);
        }
    };
    let harts: usize = args.get(1).map_or(Ok(16), |s| s.parse())?;

    let mm = Matmul::new(harts, version);
    println!(
        "multiplying X({h} x {m}) by Y({m} x {h}) with {h} harts on {c} cores, version `{v}`...",
        h = harts,
        m = harts / 2,
        c = mm.cores(),
        v = version.name(),
    );
    let mut machine = mm.machine()?;
    let report = machine.run(1_000_000_000)?;
    let ok = mm.verify(&mut machine)?;
    println!(
        "result check:        {}",
        if ok { "Z == h/2 everywhere" } else { "WRONG" }
    );
    println!("cycles:              {}", report.stats.cycles);
    println!(
        "IPC:                 {:.2} / {} peak",
        report.stats.ipc(),
        mm.cores()
    );
    println!("retired:             {}", report.stats.retired());
    println!("local access ratio:  {:.2}", report.stats.locality());
    println!("router + link hops:  {}", report.stats.link_hops);
    if !ok {
        std::process::exit(1);
    }
    Ok(())
}
