//! Binary-sweep feasibility driver (§3.3 of the paper).
//!
//! For solvers that expose no incremental progress (the paper's Z3 path),
//! the method "iteratively asks for any input with a gap that is at least as
//! large as a specified value and binary-sweeps the value with a fixed
//! timeout". This module implements the bisection generically, as an
//! *explicit state machine* ([`SweepMachine`]) so callers can suspend
//! between probes: `core::sweep_tick` drives it one probe at a time, and
//! the campaign runner checkpoints it into its journal and resumes it
//! after a crash.

/// The §3.3 bisection as an explicit, suspendable state machine.
///
/// Drive it with [`SweepMachine::next_threshold`] / [`SweepMachine::record`]
/// until `next_threshold` returns `None`. All fields are public and plain
/// data so supervisors can serialize the machine mid-sweep (the campaign
/// journal does) and reconstruct it verbatim; the only invariant is that
/// `record(g, _)` is called with the `g` that `next_threshold` returned.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepMachine {
    /// Highest threshold proven feasible so far (search lower bound).
    pub lo_bound: f64,
    /// Lowest threshold observed infeasible so far (search upper bound).
    pub hi_bound: f64,
    /// Terminate when `hi_bound − lo_bound <= resolution`.
    pub resolution: f64,
    /// Whether the seeding probe at the bottom of the range has reported.
    pub seeded: bool,
    /// Whether the seeding probe failed (the whole range is infeasible).
    pub failed_at_lo: bool,
    /// Highest threshold at which a probe found a witness.
    pub best: Option<f64>,
    /// Probe invocations recorded so far.
    pub probes: usize,
}

impl SweepMachine {
    /// A fresh machine over `[lo, hi]` with the given resolution.
    ///
    /// # Panics
    /// If `lo > hi`, the bounds are NaN, or `resolution` is not positive
    /// (callers validate ranges; see `core::SweepState::new`).
    pub fn new(lo: f64, hi: f64, resolution: f64) -> Self {
        assert!(lo <= hi && resolution > 0.0, "bad sweep range");
        SweepMachine {
            lo_bound: lo,
            hi_bound: hi,
            resolution,
            seeded: false,
            failed_at_lo: false,
            best: None,
            probes: 0,
        }
    }

    /// The threshold to probe next, or `None` when the sweep has converged
    /// (or the seeding probe failed).
    pub fn next_threshold(&self) -> Option<f64> {
        if self.failed_at_lo {
            return None;
        }
        if !self.seeded {
            return Some(self.lo_bound);
        }
        if self.hi_bound - self.lo_bound > self.resolution {
            Some(0.5 * (self.lo_bound + self.hi_bound))
        } else {
            None
        }
    }

    /// Records the outcome of the probe at `g` (the value the preceding
    /// [`SweepMachine::next_threshold`] returned).
    pub fn record(&mut self, g: f64, found: bool) {
        self.probes += 1;
        if !self.seeded {
            self.seeded = true;
            if found {
                self.best = Some(g);
            } else {
                self.failed_at_lo = true;
            }
            return;
        }
        if found {
            self.best = Some(g);
            self.lo_bound = g;
        } else {
            self.hi_bound = g;
        }
    }

    /// Whether the sweep has converged (no further probes needed).
    pub fn is_done(&self) -> bool {
        self.next_threshold().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `m` to convergence, recording `found(g)` for each probe, and
    /// returns the thresholds visited.
    fn drive(m: &mut SweepMachine, found: impl Fn(f64) -> bool) -> Vec<f64> {
        let mut visited = Vec::new();
        while let Some(g) = m.next_threshold() {
            visited.push(g);
            m.record(g, found(g));
        }
        visited
    }

    #[test]
    fn machine_converges_to_boundary() {
        // A witness exists iff g <= 7.3.
        let mut m = SweepMachine::new(0.0, 10.0, 1e-3);
        let visited = drive(&mut m, |g| g <= 7.3);
        assert!(m.is_done());
        assert_eq!(m.probes, visited.len());
        let best = m.best.expect("should find");
        assert!(best <= 7.3 && (best - 7.3).abs() < 1e-2, "best {best}");
    }

    #[test]
    fn machine_reports_nothing_found_after_one_probe() {
        let mut m = SweepMachine::new(1.0, 2.0, 1e-3);
        let visited = drive(&mut m, |_| false);
        assert_eq!(visited, vec![1.0]);
        assert!(m.failed_at_lo && m.is_done());
        assert_eq!(m.best, None);
        assert_eq!(m.probes, 1);
    }

    #[test]
    fn machine_handles_everywhere_feasible() {
        let mut m = SweepMachine::new(0.0, 4.0, 1e-3);
        drive(&mut m, |_| true);
        let best = m.best.expect("should find");
        assert!((best - 4.0).abs() < 1e-2, "best {best}");
    }

    #[test]
    fn machine_suspends_and_resumes_verbatim() {
        // Serialize-by-copy mid-sweep: a clone taken between probes must
        // continue to the identical answer.
        let mut m = SweepMachine::new(0.0, 10.0, 1e-3);
        for _ in 0..3 {
            let g = m.next_threshold().unwrap();
            m.record(g, g <= 6.1);
        }
        let mut resumed = m.clone();
        while let Some(g) = m.next_threshold() {
            m.record(g, g <= 6.1);
        }
        while let Some(g) = resumed.next_threshold() {
            resumed.record(g, g <= 6.1);
        }
        assert_eq!(m, resumed);
    }
}
