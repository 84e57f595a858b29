//! The machine-speed reference that host times are reported against.
//!
//! The sandbox this ledger runs on changes speed under it: the same fixed
//! work was measured anywhere from 1.0x to 1.6x its quiet time, in phases
//! lasting seconds to minutes, with no change to the program. A bound of
//! 10 or 25 % means nothing against that. So every timed phase interleaves
//! its work with a fixed reference kernel, at most every 100 ms, and a
//! host time is reported *calibrated*: the wall time, divided by what the
//! kernel took just before and after, times what the kernel takes on the
//! quiet reference machine ([`NOMINAL_MS`]). On that machine a calibrated
//! millisecond is a wall millisecond; on a machine running 30 % slow for
//! a minute, work and kernel slow together and the figure stays put.
//!
//! The kernel is part of the benchmark, not of the system under test. It
//! calls nothing under `crates/`, so no change there can move it, and it
//! must not be edited by a change that claims a gain. It mixes what the
//! simulator and the tools do: dependent integer arithmetic, unpredictable
//! branches, loads and stores that miss the first-level cache, and small
//! allocations.

use std::time::{Duration, Instant};

use crate::stats::median;

/// Milliseconds one [`Calibrator::run`] takes on the quiet reference
/// sandbox (2 vCPUs of a 2.1 GHz Xeon).
pub const NOMINAL_MS: f64 = 11.0;

/// Steps of the kernel per run; fixes its work.
const ROUNDS: usize = 1_000_000;
/// Slices a run is timed in.
const SLICES: usize = 5;
/// Words of the table the kernel walks: 2 MiB.
const TABLE_WORDS: usize = 1 << 19;
/// Work runs this long at least between two calibrations.
const EVERY: Duration = Duration::from_millis(100);

/// The reference kernel and the table it walks.
pub struct Calibrator {
    table: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator {
            table: vec![0; TABLE_WORDS],
        }
    }
}

impl Calibrator {
    /// Runs the kernel once, from the same state every time so that every
    /// run does the same work; milliseconds it took. The kernel runs in
    /// [`SLICES`] equal slices and the slowest-but-typical one counts for
    /// all (their median times their number), so that a burst of a few
    /// milliseconds, which the medians over iterations filter out of the
    /// work, does not pass for the machine's speed either.
    pub fn run(&mut self) -> f64 {
        for (i, word) in self.table.iter_mut().enumerate() {
            *word = (i as u32).wrapping_mul(2_654_435_761);
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let slices: Vec<f64> = (0..SLICES).map(|_| self.slice(&mut x)).collect();
        median(&slices) * SLICES as f64
    }

    fn slice(&mut self, state: &mut u64) -> f64 {
        let start = Instant::now();
        let mask = TABLE_WORDS - 1;
        let mut x = *state;
        let mut acc = 0u64;
        let mut blocks: Vec<Vec<u32>> = Vec::new();
        for round in 0..ROUNDS / SLICES {
            // xorshift64: the next index depends on the last.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = self.table[i];
            if v & 1 == 0 {
                acc = acc.wrapping_add(u64::from(v));
                self.table[i] = v.wrapping_mul(3).wrapping_add(1);
            } else {
                acc ^= x;
                self.table[i] = v >> 1;
            }
            if round % 16 == 0 {
                let mut block = Vec::with_capacity(((x >> 40) & 31) as usize + 1);
                block.push(v);
                blocks.push(block);
                if blocks.len() > 64 {
                    blocks.clear();
                }
            }
        }
        *state = x;
        std::hint::black_box((acc, blocks));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// One piece of timed work and the machine speed around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall milliseconds the work took.
    pub wall_ms: f64,
    /// Mean of the calibration before and the calibration after, in
    /// milliseconds.
    pub calib_ms: f64,
}

impl Timed {
    /// The work's time in milliseconds of the quiet reference machine.
    pub fn calibrated_ms(&self) -> f64 {
        self.wall_ms * NOMINAL_MS / self.calib_ms
    }
}

enum Mark {
    Calibration(f64),
    Work(f64),
}

/// A timed phase: pieces of work with calibrations interleaved.
pub struct Phase<'a> {
    calibrator: &'a mut Calibrator,
    calibrated_at: Instant,
    began: Instant,
    marks: Vec<Mark>,
}

impl<'a> Phase<'a> {
    /// Starts a phase with a calibration.
    pub fn begin(calibrator: &'a mut Calibrator) -> Phase<'a> {
        let now = Instant::now();
        let mut phase = Phase {
            calibrator,
            calibrated_at: now,
            began: now,
            marks: Vec::new(),
        };
        phase.calibrate();
        phase
    }

    fn calibrate(&mut self) {
        self.marks.push(Mark::Calibration(self.calibrator.run()));
        self.calibrated_at = Instant::now();
    }

    /// Seconds since the phase began, calibrations included.
    pub fn elapsed_s(&self) -> f64 {
        self.began.elapsed().as_secs_f64()
    }

    /// Pieces of work timed so far.
    pub fn pieces(&self) -> usize {
        self.marks
            .iter()
            .filter(|m| matches!(m, Mark::Work(_)))
            .count()
    }

    /// Times one piece of work, calibrating first if the last calibration
    /// is 100 ms old.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        if self.calibrated_at.elapsed() >= EVERY {
            self.calibrate();
        }
        let start = Instant::now();
        let out = work();
        self.marks
            .push(Mark::Work(start.elapsed().as_secs_f64() * 1e3));
        out
    }

    /// Ends the phase with a calibration and gives every piece of work
    /// the calibrations on either side of it.
    pub fn end(mut self) -> Vec<Timed> {
        self.calibrate();
        resolve(&self.marks)
    }
}

fn resolve(marks: &[Mark]) -> Vec<Timed> {
    let calibration = |m: &Mark| match m {
        Mark::Calibration(ms) => Some(*ms),
        Mark::Work(_) => None,
    };
    marks
        .iter()
        .enumerate()
        .filter_map(|(i, m)| match m {
            Mark::Work(wall_ms) => {
                let before = marks[..i].iter().rev().find_map(calibration);
                let after = marks[i..].iter().find_map(calibration);
                let (before, after) = (before?, after?);
                Some(Timed {
                    wall_ms: *wall_ms,
                    calib_ms: (before + after) / 2.0,
                })
            }
            Mark::Calibration(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_judged_by_the_calibrations_on_either_side() {
        use Mark::{Calibration, Work};
        let marks = [
            Calibration(10.0),
            Work(100.0),
            Work(50.0),
            Calibration(20.0),
            Work(300.0),
            Calibration(30.0),
        ];
        let timed = resolve(&marks);
        assert_eq!(timed.len(), 3);
        assert_eq!((timed[0].wall_ms, timed[0].calib_ms), (100.0, 15.0));
        assert_eq!(timed[1].calib_ms, 15.0);
        assert_eq!(timed[2].calib_ms, 25.0);
        // The kernel took 25 ms around the last piece where the reference
        // machine takes 11: 300 ms of wall time is 132 ms of that machine's.
        assert_eq!(timed[2].calibrated_ms(), 300.0 * NOMINAL_MS / 25.0);
    }

    #[test]
    fn a_phase_calibrates_at_both_ends_and_repeats_its_kernel() {
        let mut calibrator = Calibrator::default();
        let mut phase = Phase::begin(&mut calibrator);
        assert_eq!(phase.time(|| 7), 7);
        assert_eq!(phase.pieces(), 1);
        let timed = phase.end();
        assert_eq!(timed.len(), 1);
        assert!(timed[0].calib_ms > 0.0 && timed[0].calibrated_ms() >= 0.0);
        // Every run starts from the same state, so it leaves the same one.
        let left = calibrator.table.clone();
        calibrator.run();
        assert!(calibrator.table == left);
    }
}
