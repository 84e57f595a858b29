//! `--compare A.json B.json`: is B a regression of A?
//!
//! One row per workload and end-to-end metric: both medians, the ratio
//! with its base, the bound and a verdict. The rule is the one a change
//! that claims "no regression" is held to: B's median may not be worse
//! than A's by more than the metric's bound; where either side's own runs
//! spread wider than the bound the row is `unresolved`, not `ok`, unless
//! every run of B beats every run of A.

use lbp_sim::Json;

use crate::spec::{Better, EndToEnd, END_TO_END, EXACT, WORKLOADS};
use crate::stats::{median, spread};

/// What a row says about B against A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of B is better than every run of A.
    Better,
    /// Within the bound, and both sides' spreads are too.
    Ok,
    /// A side's own runs differ by more than the bound: no call.
    Unresolved,
    /// Worse than A by more than the bound.
    Regression,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Judges one metric from the values of A's runs and of B's runs.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let beats = |x: f64, y: f64| match metric.metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
        return Verdict::Better;
    }
    if spread(a) > metric.bound || spread(b) > metric.bound {
        return Verdict::Unresolved;
    }
    let (base, new) = (median(a), median(b));
    let worse_by = match metric.metric.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    if worse_by > metric.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// The plain results of one workload over the runs of a results file.
struct Side {
    runs: Vec<Json>,
}

impl Side {
    fn of(file: &Json, workload: &str) -> Side {
        let runs = file.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
        Side {
            runs: runs
                .iter()
                .filter_map(|run| run.get(workload)?.get("plain").cloned())
                .collect(),
        }
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.get("e2e")?.get(metric)?.as_f64())
            .collect()
    }

    /// Failed operations as a share of those attempted.
    fn failed_share(&self) -> f64 {
        let total =
            |key: &str| -> u64 { self.runs.iter().filter_map(|r| r.get(key)?.as_u64()).sum() };
        total("failed") as f64 / total("attempted").max(1) as f64
    }
}

/// Compares two results files. Returns the table and whether B regressed:
/// some row is a regression, or a workload fails a larger share of its
/// operations.
///
/// # Errors
///
/// A file that is not a results file, or a workload missing from a side.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<15} {:<19} {:>14} {:>14} {:>9}  {:<8} {}\n",
        "workload", "metric", "A median", "B median", "B/A", "bound", "verdict"
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        let (sa, sb) = (Side::of(a, w.name), Side::of(b, w.name));
        if sa.runs.is_empty() || sb.runs.is_empty() {
            return Err(format!("no plain run of `{}` on one side", w.name));
        }
        for m in &END_TO_END {
            let (va, vb) = (sa.values(m.metric.name), sb.values(m.metric.name));
            if va.is_empty() && vb.is_empty() {
                continue; // the metric does not apply to this workload
            }
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "`{}` of `{}` is on one side only",
                    m.metric.name, w.name
                ));
            }
            let verdict = judge(m, &va, &vb);
            regressed |= verdict == Verdict::Regression;
            let (ma, mb) = (median(&va), median(&vb));
            let bound = if m.bound == EXACT {
                "exact".to_owned()
            } else {
                format!("{}%", m.bound * 100.0)
            };
            // An error of 0 % against the reference has no ratio.
            let ratio = if ma == 0.0 { 1.0 } else { mb / ma };
            table.push_str(&format!(
                "{:<15} {:<19} {ma:>14.4} {mb:>14.4} {ratio:>9.4}  {bound:<8} {}\n",
                w.name,
                m.metric.name,
                verdict.as_str(),
            ));
        }
        let (fa, fb) = (sa.failed_share(), sb.failed_share());
        if fb > fa {
            regressed = true;
            table.push_str(&format!(
                "{:<15} failed share rose from {fa:.4} to {fb:.4}: REGRESSION\n",
                w.name
            ));
        }
    }
    table.push_str("B/A is B's median over A's; A is the base.\n");
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{end_to_end, MetricSpec};

    /// A host-time metric with a bound of 10 %.
    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            metric: MetricSpec {
                name: "x",
                unit: "ms",
                better,
            },
            bound: 0.10,
            everywhere: true,
        }
    }

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_a_regression() {
        let ms = &metric(Better::Lower);
        assert_eq!(judge(ms, &[100.0, 101.0], &[105.0, 104.0]), Verdict::Ok);
        assert_eq!(
            judge(ms, &[100.0, 101.0], &[115.0, 114.0]),
            Verdict::Regression
        );
        let ops = &metric(Better::Higher);
        assert_eq!(judge(ops, &[100.0, 101.0], &[95.0, 96.0]), Verdict::Ok);
        assert_eq!(
            judge(ops, &[100.0, 101.0], &[85.0, 86.0]),
            Verdict::Regression
        );
        assert_eq!(
            judge(ops, &[100.0, 101.0], &[120.0, 121.0]),
            Verdict::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let ms = &metric(Better::Lower);
        // A's own runs differ by far more than 10 %: nothing can be said
        // about a B in the middle of them...
        assert_eq!(
            judge(ms, &[80.0, 120.0], &[100.0, 101.0]),
            Verdict::Unresolved
        );
        // ...nor about a B that is much slower on the median...
        assert_eq!(
            judge(ms, &[80.0, 120.0], &[119.0, 130.0]),
            Verdict::Unresolved
        );
        // ...and a noisy B is no better than a noisy A...
        assert_eq!(
            judge(ms, &[100.0, 101.0], &[80.0, 120.0]),
            Verdict::Unresolved
        );
        // ...but a B below every run of A has resolved it.
        assert_eq!(judge(ms, &[80.0, 120.0], &[70.0, 79.0]), Verdict::Better);
    }

    #[test]
    fn an_exact_count_may_not_move_at_all() {
        let cycles = end_to_end("guest_cycles").unwrap();
        assert_eq!(judge(cycles, &[112_262.0; 2], &[112_262.0; 2]), Verdict::Ok);
        assert_eq!(
            judge(cycles, &[112_262.0; 2], &[112_263.0; 2]),
            Verdict::Regression
        );
        assert_eq!(
            judge(cycles, &[112_262.0; 2], &[112_261.0; 2]),
            Verdict::Better
        );
    }

    fn results(ms: f64, failed: u64) -> Json {
        let plain = |w: &str| {
            let run = Json::obj([
                ("attempted", Json::U64(10)),
                ("failed", Json::U64(failed)),
                ("e2e", Json::obj([("iter_ms_p50", Json::F64(ms))])),
            ]);
            (w.to_owned(), Json::obj([("plain", run)]))
        };
        let run = Json::Obj(WORKLOADS.iter().map(|w| plain(w.name)).collect());
        Json::obj([("runs", Json::Arr(vec![run.clone(), run]))])
    }

    #[test]
    fn a_regression_or_a_larger_failed_share_fails_the_comparison() {
        let (table, regressed) = compare(&results(100.0, 0), &results(101.0, 0)).unwrap();
        assert!(!regressed, "{table}");
        assert_eq!(table.matches(" ok\n").count(), WORKLOADS.len());
        assert!(table.contains("1.0100"), "{table}");
        let (table, regressed) = compare(&results(100.0, 0), &results(150.0, 0)).unwrap();
        assert!(regressed && table.contains("REGRESSION"), "{table}");
        let (table, regressed) = compare(&results(100.0, 0), &results(100.0, 1)).unwrap();
        assert!(regressed && table.contains("failed share rose"), "{table}");
        assert!(compare(&results(100.0, 0), &Json::obj([])).is_err());
    }
}
