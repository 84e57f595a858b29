//! lbp-isa's decode sweep, so that the root package's tests run its
//! strided subset too.

#[path = "../crates/lbp-isa/tests/it/decode_sweep.rs"]
mod decode_sweep;
