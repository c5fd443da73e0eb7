//! Communication statistics.
//!
//! The performance model calibrates against message *counts* and *volumes*,
//! so every point-to-point send is accounted here. Counters are per-rank and
//! lock-free (plain atomics); `World::run` aggregates them at the end.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-rank communication counters.
#[derive(Default)]
pub(crate) struct CommStats {
    /// Point-to-point messages sent (collectives decompose into these).
    messages_sent: AtomicU64,
    /// Logical bytes sent.
    bytes_sent: AtomicU64,
    /// Number of collective operations entered.
    collectives: AtomicU64,
}

impl CommStats {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn record_send(&self, bytes: usize) {
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_collective(&self) {
        self.collectives.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            collectives: self.collectives.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of `CommStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub(crate) messages_sent: u64,
    pub bytes_sent: u64,
    pub(crate) collectives: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StatsSnapshot {
        /// Element-wise sum.
        fn merged(self, other: StatsSnapshot) -> StatsSnapshot {
            StatsSnapshot {
                messages_sent: self.messages_sent + other.messages_sent,
                bytes_sent: self.bytes_sent + other.bytes_sent,
                collectives: self.collectives + other.collectives,
            }
        }
    }

    #[test]
    fn records_accumulate() {
        let s = CommStats::new();
        s.record_send(100);
        s.record_send(28);
        s.record_collective();
        let snap = s.snapshot();
        assert_eq!(snap.messages_sent, 2);
        assert_eq!(snap.bytes_sent, 128);
        assert_eq!(snap.collectives, 1);
    }

    #[test]
    fn merge_sums_fields() {
        let a = StatsSnapshot {
            messages_sent: 1,
            bytes_sent: 10,
            collectives: 2,
        };
        let b = StatsSnapshot {
            messages_sent: 3,
            bytes_sent: 5,
            collectives: 0,
        };
        let m = a.merged(b);
        assert_eq!(m.messages_sent, 4);
        assert_eq!(m.bytes_sent, 15);
        assert_eq!(m.collectives, 2);
    }
}
