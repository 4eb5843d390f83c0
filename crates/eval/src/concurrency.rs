//! The high-concurrency smoke: prove the event-driven engine sustains
//! tens of thousands of in-flight reverse traceroutes in bounded memory.
//!
//! The thread-per-batch engine capped concurrency at the worker count —
//! 50k concurrent measurements would have meant 50k OS threads (hundreds
//! of gigabytes of stacks). On the virtual event loop an in-flight
//! measurement is one control block on a priority queue, so the smoke
//! simply tiles the smoke-scale workload up to the target size, admits
//! the whole campaign at once, and checks that every request completes
//! with the loop reporting the full campaign in flight at peak. ci.sh
//! runs this as a gate at 50 000.

use crate::campaign::{CampaignSpec, Scale};
use revtr::{task_footprint_bytes, LoopConfig};
use revtr_netsim::Addr;

/// What the concurrency smoke measured.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrencySmoke {
    /// Requests admitted (the tiled campaign size).
    pub requests: usize,
    /// Requests that came back (must equal `requests`).
    pub completed: usize,
    /// Peak in-flight measurements the event loop reported.
    pub inflight_peak: usize,
    /// Control-block steps the loop dispatched.
    pub events: u64,
    /// Bytes per control block (compile-time size; excludes per-path heap
    /// state).
    pub task_bytes: usize,
    /// Wall-clock seconds for the campaign.
    pub wall_s: f64,
}

impl ConcurrencySmoke {
    /// Whether the smoke met its target: every admitted request finished
    /// and the loop really held `target` measurements in flight at once.
    pub fn pass(&self, target: usize) -> bool {
        self.completed == self.requests && self.inflight_peak >= target
    }

    /// One-line summary.
    pub fn render(&self, target: usize) -> String {
        format!(
            "concurrency smoke: {} requests, {} completed, {} in flight at peak \
             (target {}), {} loop events, {} B/control block, {:.2} s wall\n\
             concurrency gate: {}",
            self.requests,
            self.completed,
            self.inflight_peak,
            target,
            self.events,
            self.task_bytes,
            self.wall_s,
            if self.pass(target) { "PASS" } else { "FAIL" }
        )
    }
}

/// Run `target` reverse traceroutes as ONE event-loop campaign on the
/// smoke topology (the smoke workload tiled to size; repeats hit the
/// measurement cache, which is exactly what lets a real deployment
/// oversubscribe).
pub fn run(target: usize, seed: u64) -> ConcurrencySmoke {
    let spec = CampaignSpec {
        event_loop: LoopConfig::parallel(),
        ..CampaignSpec::new(Scale::Smoke, seed)
    };
    let ctx = spec.context();
    let campaign = spec.assemble(&ctx);
    let base = ctx.workload();
    let pairs: Vec<(Addr, Addr)> = base.iter().copied().cycle().take(target).collect();
    for &(_, src) in &base {
        campaign.system.register_source(src);
    }
    let run = campaign.run(&pairs);
    ConcurrencySmoke {
        requests: pairs.len(),
        completed: run.outcome.results.len(),
        inflight_peak: run.outcome.inflight_peak,
        events: run.outcome.events,
        task_bytes: task_footprint_bytes(),
        wall_s: run.wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiled_campaign_holds_the_target_in_flight() {
        // Small target in the unit test; ci.sh runs the 50k gate.
        let s = run(500, 1);
        assert_eq!(s.requests, 500);
        assert!(s.pass(500), "{}", s.render(500));
        assert!(s.events >= 500, "every request steps at least once");
        // A control block stays small — the whole point of the refactor.
        assert!(
            s.task_bytes < 4096,
            "control block grew suspiciously large: {} B",
            s.task_bytes
        );
    }
}
