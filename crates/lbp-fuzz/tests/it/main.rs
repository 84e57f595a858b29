//! lbp-fuzz's integration tests: one module per suite, linked as one
//! binary.

#[path = "../../../../tests/cli_contract/mod.rs"]
mod cli_contract;
mod cli_grammar;
mod prop_generated;
mod resume_oracle;
mod sweeps;
