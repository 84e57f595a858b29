//! The plain run: no tracer, no counting allocator, no `unsafe`.

#![forbid(unsafe_code)]

fn main() {
    std::process::exit(lbp_benchmark::cli::main(None));
}
