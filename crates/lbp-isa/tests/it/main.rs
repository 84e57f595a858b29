//! lbp-isa's integration tests: one module per suite, linked as one
//! binary.

mod decode_sweep;
mod encode_errors;
mod roundtrip;
