//! lbp-cc's integration tests: one module per suite, linked as one
//! binary.

mod fences;
mod prop_expr;
mod prop_stmt;
mod run_compiled;
