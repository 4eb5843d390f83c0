//! Virtual measurement clock.
//!
//! All latency in the reproduction is *virtual*: probes advance the clock by
//! their simulated RTT, spoofed batches by their 10-second collection
//! timeout (paper §5.2.4). The clock periodically flushes accumulated time
//! into the simulator so route churn progresses while campaigns run.
//!
//! The clock holds two campaign-wide accumulators: the total virtual time
//! charged so far and the time not yet flushed into churn (flushed at a
//! 1-virtual-minute threshold). Every advance is also charged to the
//! calling task's [`TaskCtx`], which is where a measurement reads its own
//! duration — the totals mix every task's charges.

use crate::ctx::TaskCtx;
use revtr_netsim::Sim;
use std::sync::atomic::{AtomicU64, Ordering};

/// Spoofed-probe batch collection timeout, in virtual milliseconds
/// (paper §5.2.4: "we empirically set this timeout to 10 seconds").
pub const SPOOF_BATCH_TIMEOUT_MS: f64 = 10_000.0;

/// Accumulated virtual time pending before a churn flush (1 virtual minute).
const FLUSH_THRESHOLD_MS: f64 = 60_000.0;

/// CAS-add `delta` to an f64 stored as bits in `a`; returns the new value.
fn add_f64(a: &AtomicU64, delta: f64) -> f64 {
    let mut cur = a.load(Ordering::Relaxed);
    loop {
        let new = f64::from_bits(cur) + delta;
        match a.compare_exchange_weak(cur, new.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return new,
            Err(c) => cur = c,
        }
    }
}

/// Atomically take the whole f64 out of `a`, leaving zero.
fn take_f64(a: &AtomicU64) -> f64 {
    f64::from_bits(a.swap(0.0f64.to_bits(), Ordering::Relaxed))
}

/// A shareable virtual clock. Both accumulators store `f64::to_bits`.
#[derive(Debug, Default)]
pub struct Clock {
    total_ms: AtomicU64,
    pending_ms: AtomicU64,
}

impl Clock {
    /// A clock at zero.
    pub fn new() -> Clock {
        Clock::default()
    }

    /// Total virtual milliseconds elapsed (every task's advances;
    /// immediately accurate, not batched).
    pub fn now_ms(&self) -> f64 {
        f64::from_bits(self.total_ms.load(Ordering::Relaxed))
    }

    /// Total virtual seconds elapsed.
    pub fn now_s(&self) -> f64 {
        self.now_ms() / 1000.0
    }

    /// Virtual milliseconds accumulated but not yet flushed into the
    /// simulator's churn process. The simulator's own `now_hours` lags
    /// true virtual time by exactly this amount, so
    /// `sim.now_hours() + pending_ms() / 3_600_000` is the authoritative
    /// "now" — immediate like [`Clock::now_ms`], but also counting time
    /// drivers advanced on the simulator directly.
    pub fn pending_ms(&self) -> f64 {
        f64::from_bits(self.pending_ms.load(Ordering::Relaxed))
    }

    /// Advance the clock and charge `ms` to `ctx`; flushes churn time into
    /// `sim` once enough has accumulated.
    pub fn advance(&self, ms: f64, sim: &Sim, ctx: &mut TaskCtx) {
        debug_assert!(ms >= 0.0, "time flows forward");
        ctx.ms += ms;
        add_f64(&self.total_ms, ms);
        if add_f64(&self.pending_ms, ms) >= FLUSH_THRESHOLD_MS {
            let p = take_f64(&self.pending_ms);
            if p > 0.0 {
                sim.advance_hours(p / 3_600_000.0);
            }
        }
    }

    /// Force all pending time into the simulator's churn process.
    pub fn flush(&self, sim: &Sim) {
        let p = take_f64(&self.pending_ms);
        if p > 0.0 {
            sim.advance_hours(p / 3_600_000.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_netsim::SimConfig;

    #[test]
    fn clock_accumulates_and_flushes() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let clock = Clock::new();
        let mut ctx = TaskCtx::default();
        assert_eq!(clock.now_ms(), 0.0);
        clock.advance(1500.0, &sim, &mut ctx);
        assert!((clock.now_ms() - 1500.0).abs() < 1e-9);
        assert!((clock.now_s() - 1.5).abs() < 1e-9);
        assert_eq!(ctx.ms, 1500.0);
        // Below threshold: sim time untouched until an explicit flush.
        assert_eq!(sim.now_hours(), 0.0);
        clock.flush(&sim);
        assert!((sim.now_hours() - 1500.0 / 3_600_000.0).abs() < 1e-12);
    }

    #[test]
    fn large_advance_flushes_automatically() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let clock = Clock::new();
        clock.advance(120_000.0, &sim, &mut TaskCtx::default());
        assert!(sim.now_hours() > 0.0);
    }

    #[test]
    fn concurrent_advances_sum_exactly() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let clock = Clock::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut ctx = TaskCtx::default();
                    for _ in 0..1000 {
                        clock.advance(2.5, &sim, &mut ctx);
                    }
                    assert_eq!(ctx.ms, 2500.0, "each task sees only its own advances");
                });
            }
        });
        // 8 threads x 1000 advances x 2.5 ms: each addend is exactly
        // representable, so the total is exact regardless of interleaving.
        assert_eq!(clock.now_ms(), 8.0 * 1000.0 * 2.5);
        // Everything is below the flush threshold: flush drains it.
        clock.flush(&sim);
        assert!((sim.now_hours() - 20_000.0 / 3_600_000.0).abs() < 1e-9);
    }
}
