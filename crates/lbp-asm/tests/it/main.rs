//! lbp-asm's integration tests: one module per suite, linked as one
//! binary.

mod errors;
mod roundtrip_text;
