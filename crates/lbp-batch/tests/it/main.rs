//! lbp-batch's integration tests: one module per suite, linked as one
//! binary.

#[path = "../../../../tests/cli_contract/mod.rs"]
mod cli_contract;
mod cli_grammar;
mod journal_recovery;
mod soak;
mod worker_count;
