//! How a run ended, shared by the suites that compare two executions.

use lbp::sim::{Machine, RunReport, SimError};

/// How a run ended, in a form comparable across two executions.
#[derive(PartialEq, Debug)]
pub struct Outcome {
    /// Report JSON for clean exits, error text otherwise (hung.s deadlocks).
    pub result: String,
    /// Full machine state: every register, queue, bank and counter.
    pub state: Vec<u8>,
}

pub fn finish(m: &mut Machine, outcome: Result<RunReport, SimError>) -> Outcome {
    Outcome {
        result: match outcome {
            Ok(report) => report.to_json().to_string(),
            Err(e) => e.to_string(),
        },
        state: m.snapshot().as_bytes().to_vec(),
    }
}
