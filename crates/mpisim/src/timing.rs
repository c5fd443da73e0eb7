//! Phase timing in the paper's measurement style (§4.3): `MPI_Barrier` +
//! `MPI_Wtime` brackets around each critical routine, reporting the elapsed
//! time of the *slowest* MPI process per phase.

#![expect(clippy::disallowed_methods, reason = "this is the phase-timer layer")]

use crate::collective::ReduceOp;
use crate::comm::Comm;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulates named phase timings on one rank.
#[derive(Default)]
pub struct PhaseTimer {
    phases: BTreeMap<String, PhaseAccum>,
    order: Vec<String>,
}

#[derive(Default, Clone, Copy)]
struct PhaseAccum {
    total_s: f64,
    count: u64,
}

impl PhaseTimer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Time `f` inside barrier brackets so all ranks measure the same region.
    pub fn region<R>(&mut self, comm: &Comm, name: &str, f: impl FnOnce() -> R) -> R {
        comm.barrier();
        let t0 = Instant::now();
        let out = f();
        comm.barrier();
        self.record(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Time `f` without barriers (for per-rank work inside a step).
    pub fn region_local<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Record an externally measured duration.
    pub fn record(&mut self, name: &str, seconds: f64) {
        if !self.phases.contains_key(name) {
            self.order.push(name.to_string());
        }
        let acc = self.phases.entry(name.to_string()).or_default();
        acc.total_s += seconds;
        acc.count += 1;
    }

    /// Local (this rank only) report, phases in first-recorded order.
    pub(crate) fn local_report(&self) -> PhaseReport {
        PhaseReport {
            entries: self
                .order
                .iter()
                .map(|name| {
                    let acc = self.phases[name];
                    PhaseEntry {
                        name: name.clone(),
                        total_s: acc.total_s,
                        count: acc.count,
                    }
                })
                .collect(),
        }
    }

    /// Collective report: per phase, the maximum total time over all ranks —
    /// "the elapsed time for the slowest MPI process for each item"
    /// (paper, Table 3 footnote). All ranks must have recorded the same
    /// phases in the same order.
    pub fn report_max(&self, comm: &Comm) -> PhaseReport {
        let local = self.local_report();
        let totals: Vec<f64> = local.entries.iter().map(|e| e.total_s).collect();
        let maxima = comm.allreduce_vec_f64(totals, ReduceOp::Max);
        PhaseReport {
            entries: local
                .entries
                .into_iter()
                .zip(maxima)
                .map(|(mut e, m)| {
                    e.total_s = m;
                    e
                })
                .collect(),
        }
    }
}

/// One phase's aggregated timing.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEntry {
    pub name: String,
    pub total_s: f64,
    pub count: u64,
}

impl PhaseEntry {
    pub(crate) fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }
}

/// Aggregated timing report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseReport {
    pub entries: Vec<PhaseEntry>,
}

impl PhaseReport {
    pub fn get(&self, name: &str) -> Option<&PhaseEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    pub fn total_s(&self) -> f64 {
        self.entries.iter().map(|e| e.total_s).sum()
    }

    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut s = format!(
            "{:<42} {:>12} {:>8} {:>12}\n",
            "Phase", "Total [s]", "Calls", "Mean [s]"
        );
        for e in &self.entries {
            s.push_str(&format!(
                "{:<42} {:>12.6} {:>8} {:>12.6}\n",
                e.name,
                e.total_s,
                e.count,
                e.mean_s()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn records_accumulate_and_preserve_order() {
        let mut t = PhaseTimer::new();
        t.record("b_phase", 1.0);
        t.record("a_phase", 2.0);
        t.record("b_phase", 3.0);
        let r = t.local_report();
        assert_eq!(r.entries[0].name, "b_phase");
        assert_eq!(r.entries[0].total_s, 4.0);
        assert_eq!(r.entries[0].count, 2);
        assert_eq!(r.entries[1].name, "a_phase");
        assert_eq!(r.total_s(), 6.0);
        assert_eq!(r.get("a_phase").unwrap().mean_s(), 2.0);
    }

    #[test]
    fn region_measures_nonzero_time() {
        World::new(2).run(|c| {
            let mut t = PhaseTimer::new();
            let v = t.region(c, "work", || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                42
            });
            assert_eq!(v, 42);
            assert!(t.local_report().get("work").unwrap().total_s >= 0.004);
        });
    }

    #[test]
    fn report_max_takes_slowest_rank() {
        World::new(3).run(|c| {
            let mut t = PhaseTimer::new();
            // Rank r pretends to have spent r seconds.
            t.record("phase", c.rank() as f64);
            let r = t.report_max(c);
            assert_eq!(r.get("phase").unwrap().total_s, 2.0);
        });
    }

    #[test]
    fn table_renders_all_phases() {
        let mut t = PhaseTimer::new();
        t.record("Calc_Force", 1.5);
        t.record("Exchange_LET", 0.5);
        let table = t.local_report().to_table();
        assert!(table.contains("Calc_Force"));
        assert!(table.contains("Exchange_LET"));
    }
}
