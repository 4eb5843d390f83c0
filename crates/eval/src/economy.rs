//! Probe-economy A/B: the stop-sets-off control against the stop-sets-on
//! arm of the same seeded campaign.
//!
//! This is the evaluation face of the campaign-wide Doubletree stop sets
//! ([`revtr_probing::StopSet`]): it runs the clean monitored campaign
//! twice — identical topology, workload, and seed; only
//! `EngineConfig::use_stop_sets` differs — and gates the economy claim of
//! the PR: measurement probes per reverse traceroute (option probes plus
//! atlas RR, pings, and traceroutes — see
//! [`Snapshot::measurement_probes`]) must drop by at least
//! [`DEFAULT_MIN_CUT`] while coverage and accuracy stay within
//! [`DEFAULT_TOL_QUALITY`] of the control. `revtr-cli economy` exits
//! non-zero when the gate fails, and ci.sh sweeps it over the standard
//! seeds {1, 7, 42}.
//!
//! [`Snapshot::measurement_probes`]: revtr_probing::Snapshot::measurement_probes

use crate::campaign::Scale;
use crate::monitor;
use revtr_probing::{CacheStats, StopSetSnapshot};
use std::fmt::Write as _;

/// The economy gate: the on-arm must cut measurement probes per revtr by
/// at least this fraction.
pub const DEFAULT_MIN_CUT: f64 = 0.25;

/// The quality guard: |coverage delta| and |accuracy delta| between the
/// arms must stay within this absolute bound.
pub const DEFAULT_TOL_QUALITY: f64 = 0.02;

/// One arm of the A/B (off control or on treatment).
#[derive(Clone, Debug)]
pub struct EconomyArm {
    /// Whether the stop sets were enabled.
    pub stop_sets: bool,
    /// Every measurement probe the campaign issued (option probes +
    /// atlas RR + pings + traceroutes).
    pub probes: u64,
    /// The option-carrying subset (RR + spoofed RR + TS + spoofed TS),
    /// reported alongside so the per-technique economy stays visible.
    pub option_probes: u64,
    /// Requests attempted.
    pub requests: u64,
    /// Campaign coverage.
    pub coverage: f64,
    /// AS-soundness of compared complete paths.
    pub accuracy: f64,
    /// Measurement-cache stats at end of run.
    pub cache: CacheStats,
    /// Stop-set effectiveness counters (all-zero for the off control).
    pub stopset: StopSetSnapshot,
    /// Campaign journal fingerprint.
    pub journal_fingerprint: u64,
}

impl EconomyArm {
    /// Measurement probes per attempted request.
    pub fn probes_per_revtr(&self) -> f64 {
        self.probes as f64 / self.requests.max(1) as f64
    }
}

/// The paired comparison and its gate parameters.
#[derive(Clone, Debug)]
pub struct EconomyReport {
    /// Campaign scale.
    pub scale: Scale,
    /// Master seed (both arms).
    pub seed: u64,
    /// The stop-sets-off control.
    pub off: EconomyArm,
    /// The stop-sets-on treatment.
    pub on: EconomyArm,
    /// Required fractional probe cut (e.g. 0.25 = 25%).
    pub min_cut: f64,
    /// Allowed absolute coverage/accuracy delta.
    pub tol_quality: f64,
}

impl EconomyReport {
    /// Fractional probes-per-revtr reduction of the on arm vs the
    /// control (positive = fewer probes).
    pub fn cut(&self) -> f64 {
        let base = self.off.probes_per_revtr();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.on.probes_per_revtr() / base
    }

    /// Whether the economy gate passes: probe cut at least `min_cut`,
    /// coverage and accuracy within `tol_quality` of the control.
    pub fn pass(&self) -> bool {
        self.cut() >= self.min_cut
            && (self.on.coverage - self.off.coverage).abs() <= self.tol_quality
            && (self.on.accuracy - self.off.accuracy).abs() <= self.tol_quality
    }

    /// Render the A/B as text (both arms, deltas, gate verdict).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "probe economy A/B ({} scale, seed {}):",
            self.scale.name(),
            self.seed
        );
        for arm in [&self.off, &self.on] {
            let _ = writeln!(
                s,
                "  stop-sets {:>3}: {:>8} probes ({} option) / {} revtrs = {:.2} probes/revtr, \
                 coverage {:.4}, accuracy {:.4}, stop-set hits {}",
                if arm.stop_sets { "on" } else { "off" },
                arm.probes,
                arm.option_probes,
                arm.requests,
                arm.probes_per_revtr(),
                arm.coverage,
                arm.accuracy,
                arm.stopset.total_hits()
            );
        }
        let _ = writeln!(
            s,
            "  probe cut {:.1}% (gate >= {:.0}%), coverage delta {:+.4}, accuracy delta {:+.4} \
             (|delta| <= {:.3})",
            self.cut() * 100.0,
            self.min_cut * 100.0,
            self.on.coverage - self.off.coverage,
            self.on.accuracy - self.off.accuracy,
            self.tol_quality
        );
        let _ = write!(
            s,
            "economy gate: {}",
            if self.pass() { "PASS" } else { "FAIL" }
        );
        s
    }
}

/// Run one arm of the A/B as a clean monitored campaign.
fn arm(scale: Scale, seed: u64, stop_sets: bool) -> EconomyArm {
    let mut spec = monitor::clean(scale, seed);
    spec.engine.use_stop_sets = stop_sets;
    let m = monitor::run(&spec);
    EconomyArm {
        stop_sets,
        probes: m.probes.measurement_probes(),
        option_probes: m.probes.option_probes(),
        requests: m.requests as u64,
        coverage: m.value("coverage"),
        accuracy: m.value("accuracy"),
        cache: m.cache,
        stopset: m.stopset,
        journal_fingerprint: m.journal_fingerprint,
    }
}

/// Run the full A/B at `scale`/`seed` with explicit gate parameters.
pub fn run(scale: Scale, seed: u64, min_cut: f64, tol_quality: f64) -> EconomyReport {
    EconomyReport {
        scale,
        seed,
        off: arm(scale, seed, false),
        on: arm(scale, seed, true),
        min_cut,
        tol_quality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_economy_cuts_probes_within_quality_bounds() {
        let r = run(Scale::Smoke, 1, DEFAULT_MIN_CUT, DEFAULT_TOL_QUALITY);
        assert!(r.pass(), "economy gate failed:\n{}", r.render());
        assert!(
            r.on.stopset.total_hits() > 0,
            "on arm never hit the stop sets"
        );
        assert_eq!(
            r.off.stopset.total_hits(),
            0,
            "off control touched the stop sets"
        );
        assert_eq!(r.off.requests, r.on.requests, "workload moved between arms");
    }

    #[test]
    fn stop_set_hits_do_not_double_count_cache_hits() {
        // Counter reconciliation: a stop-set hit replaces a whole RR step,
        // so it must NOT also appear as measurement-cache traffic — the
        // two economies are attributed to disjoint counters. The on arm
        // therefore shows (a) stop-set lookups where the off arm has
        // none, and (b) *no more* cache lookups than the off arm (it
        // skips probes, so it can only consult the cache less).
        let EconomyReport { off, on, .. } =
            run(Scale::Smoke, 1, DEFAULT_MIN_CUT, DEFAULT_TOL_QUALITY);
        assert!(!off.stop_sets && on.stop_sets);
        assert_eq!(off.stopset, StopSetSnapshot::default());
        assert!(
            on.stopset.backward_lookups() > 0,
            "on arm never consulted the backward set: {:?}",
            on.stopset
        );
        let off_lookups = off.cache.hits + off.cache.misses;
        let on_lookups = on.cache.hits + on.cache.misses;
        assert!(
            on_lookups <= off_lookups,
            "stop-set consults leaked into cache stats: {on_lookups} > {off_lookups}"
        );
        // And the headline economy: reuse may only cut option probes.
        assert!(
            on.option_probes <= off.option_probes,
            "stop sets increased probing: {} > {}",
            on.option_probes,
            off.option_probes
        );
    }
}
