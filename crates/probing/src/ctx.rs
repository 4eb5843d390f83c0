//! Per-task charges.
//!
//! A [`TaskCtx`] is one measurement's own share of the virtual clock and
//! the probe counters. Every charging [`crate::Prober`] method takes the
//! calling task's ctx and charges it next to the campaign-wide
//! [`crate::Clock`] and [`crate::Counters`] totals. The totals mix every
//! task's charges in whatever order the tasks ran; a ctx holds exactly the
//! addends its own task charged, in its own order, so a measurement's
//! duration, probe counts and span offsets read from it are the same
//! under any schedule, worker count or thread.

use crate::counters::Snapshot;

/// One task's virtual time and probe counts. Not `Copy`: a charge made
/// to a copy would be lost to the task.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TaskCtx {
    /// Virtual milliseconds: the task's start offset plus every advance
    /// charged to it.
    pub ms: f64,
    /// Every probe (and meta-count) charged to the task.
    pub probes: Snapshot,
}

impl TaskCtx {
    /// A ctx whose clock starts at `ms` (a timed job's arrival time) and
    /// whose counts start at zero.
    pub fn at(ms: f64) -> TaskCtx {
        TaskCtx {
            ms,
            probes: Snapshot::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clock, Counters, ProbeKind};
    use revtr_netsim::{Sim, SimConfig};

    #[test]
    fn interleaved_tasks_see_only_their_own_charges() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let (clock, counters) = (Clock::new(), Counters::new());
        let mut a = TaskCtx::default();
        let mut b = TaskCtx::at(100.0);
        clock.advance(3.0, &sim, &mut a);
        counters.add(ProbeKind::Rr, 2, &mut a);
        clock.advance(7.0, &sim, &mut b);
        counters.add(ProbeKind::SpoofRr, 5, &mut b);
        clock.advance(1.0, &sim, &mut a);
        counters.add_events(1, &mut a);
        counters.add(ProbeKind::Rr, 1, &mut b);
        assert_eq!(a.ms, 4.0);
        assert_eq!((a.probes.rr, a.probes.spoof_rr, a.probes.events), (2, 0, 1));
        assert_eq!(b.ms, 107.0, "b's clock starts at its offset");
        assert_eq!((b.probes.rr, b.probes.spoof_rr, b.probes.events), (1, 5, 0));
        // The totals see every charge of both tasks.
        assert_eq!(clock.now_ms(), 11.0);
        let g = counters.snapshot();
        assert_eq!((g.rr, g.spoof_rr, g.events), (3, 5, 1));
        assert_eq!(g, a.probes.plus(&b.probes));
    }
}
