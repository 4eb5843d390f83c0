//! The deterministic SLO monitor: run a campaign with telemetry, judge it
//! against a declarative policy, report the stuck-request watchdog, and
//! export the trace/metrics artifacts.
//!
//! This is the judgment layer on top of `eval::metrics` (which only
//! *profiles*). The monitor runs the same event-loop campaign with the
//! same telemetry configuration, so on the clean configuration its printed
//! campaign fingerprints are byte-identical to `revtr-cli metrics` at the
//! same seed — judging a run must not change its identity. Concretely:
//!
//! 1. the campaign runs and the metrics/journal fingerprints are captured;
//! 2. derived values (coverage, oracle AS-soundness, probe budget per
//!    request, watchdog flag count) are computed *outside* the registry;
//! 3. the SLO policy is evaluated over the snapshot + sorted journal +
//!    derived table, and only then are the alerts fired into the registry
//!    as `slo.alert.<rule>` counters.
//!
//! Everything the monitor prints is a pure function of sorted inputs, so
//! the alert table and the export bytes are identical across reruns and
//! worker counts.

use crate::campaign::{Campaign, CampaignRun, CampaignSpec, Scale};
use crate::render::Table;
use revtr_netsim::ScenarioConfig;
use revtr_probing::{RetryPolicy, Snapshot};
use revtr_telemetry::{
    chrome_trace_json, prometheus_text, MetricsSnapshot, RequestRecord, RuleExpr, Severity,
    SloInput, SloPolicy, SloReport, SloRule, TelemetryConfig, WatchdogFlag,
};
use std::path::{Path, PathBuf};

/// Clean-configuration watchdog deadline (virtual ms) per scale: above
/// the slowest clean request measured at seeds {1, 7, 42} (standard max
/// 1 265 s, smoke max 243 s — see the calibration helper below), so on a
/// healthy campaign any flag is a genuine regression.
pub(crate) fn clean_deadline_ms(scale: Scale) -> f64 {
    match scale {
        Scale::Standard => 1_500_000.0,
        Scale::Smoke => 300_000.0,
    }
}

/// The clean p99 latency envelope (virtual ms) per scale — the deadline
/// the *faulted* preset arms. Injected loss with no retry budget makes
/// surviving requests burn extra 10 s spoofed-batch timeouts, pushing the
/// p99 band past the clean envelope (standard: 252–268 s clean vs
/// 285–302 s faulted), so fault-induced stalls overrun it and get
/// flagged while the envelope still sits above almost every clean
/// request.
fn envelope_deadline_ms(scale: Scale) -> f64 {
    match scale {
        Scale::Standard => 300_000.0,
        Scale::Smoke => 100_000.0,
    }
}

/// Empirical clean baselines (seeds {1, 7, 42}, serial campaign) the
/// default policy's floors are derived from. See EXPERIMENTS.md §
/// "Deterministic SLO monitor" for the measured values.
struct Baselines {
    /// Clean campaign coverage (complete / attempted), worst seed.
    coverage: f64,
    /// Clean AS-soundness of compared complete paths, worst seed.
    accuracy: f64,
    /// Option probes per request, clean band.
    probes_low: f64,
    probes_high: f64,
    /// Clean `stage.rr_step.virtual_us` p99 upper bound (µs).
    rr_p99_us: u64,
    /// Ceiling on the campaign-wide ledger high-water total (bytes).
    mem_total_max: u64,
    /// Capacity the event-loop control-block ledger is measured against
    /// (bytes): the 50k-in-flight design point of the concurrency smoke.
    control_capacity: u64,
    /// Minimum tolerated control-block headroom against that capacity.
    control_headroom: f64,
}

/// Extra probes-per-revtr headroom granted to engines that run the
/// Appx.-E verification re-probe (see [`policy`]): it costs ~4.4 option
/// probes per request at standard scale, and the band would otherwise
/// flag the verification traffic itself.
const VERIFY_PROBE_ALLOWANCE: f64 = 4.5;

fn baselines(scale: Scale) -> Baselines {
    match scale {
        // Measured clean, seeds {1, 7, 42}, event-loop campaign with
        // survey probes bypassing the measurement cache: coverage
        // 0.7365–0.7705, accuracy 0.9672–1.0, probes/revtr 6.97–7.19,
        // rr_step p99 88 080 ms at every seed.
        Scale::Standard => Baselines {
            coverage: 0.735,
            accuracy: 0.96,
            probes_low: 5.0,
            probes_high: 9.0,
            rr_p99_us: 100_000_000,
            // Measured clean mem.total.hiwater at seeds {1, 7, 42}:
            // 37.6–38.2 MB (route cache + journal dominate); ceiling
            // at ~1.7x the worst seed.
            mem_total_max: 64 << 20,
            // The 50k-in-flight concurrency-smoke design point at the
            // measured 1.2 kB control-block footprint (the standard
            // campaign's 2 000 admitted blocks read 2.4 MB, headroom
            // 0.964 against this capacity).
            control_capacity: 64 << 20,
            control_headroom: 0.9,
        },
        // Measured clean, seeds {1, 7, 42}: coverage 0.80–1.0, accuracy
        // 1.0, probes/revtr 1.44–2.88, rr_step p99 48 234–79 692 ms.
        Scale::Smoke => Baselines {
            coverage: 0.80,
            accuracy: 0.95,
            probes_low: 1.0,
            probes_high: 6.0,
            rr_p99_us: 100_000_000,
            // Measured clean smoke mem.total.hiwater at seeds {1, 7, 42}:
            // 188–198 kB; ceiling with generous margin.
            mem_total_max: 16 << 20,
            control_capacity: 64 << 20,
            control_headroom: 0.9,
        },
    }
}

/// The default reproduction policy for a given scale: the paper-shaped
/// guardrails (coverage, soundness, probe budget, latency) phrased as
/// [`SloRule`]s over this repo's measured clean baselines.
pub fn default_policy(scale: Scale) -> SloPolicy {
    let b = baselines(scale);
    let rule = |name: &str, severity: Severity, expr: RuleExpr| SloRule {
        name: name.to_string(),
        severity,
        expr,
    };
    SloPolicy {
        rules: vec![
            // Coverage must stay within 5% of the clean baseline
            // (the ISSUE's `coverage >= 0.95·baseline`).
            rule(
                "coverage-floor",
                Severity::Critical,
                RuleExpr::DerivedMin {
                    key: "coverage".into(),
                    min: b.coverage * 0.95,
                },
            ),
            // Complete paths must stay AS-sound against the oracle.
            rule(
                "accuracy-floor",
                Severity::Critical,
                RuleExpr::DerivedMin {
                    key: "accuracy".into(),
                    min: b.accuracy,
                },
            ),
            // The stuck-request watchdog must stay silent.
            rule(
                "stuck-requests",
                Severity::Critical,
                RuleExpr::DerivedMax {
                    key: "watchdog.flagged".into(),
                    max: 0.0,
                },
            ),
            // Probe budget per request stays in the Table-4-shaped band.
            rule(
                "probe-budget-band",
                Severity::Warning,
                RuleExpr::DerivedMax {
                    key: "probes.per_revtr".into(),
                    max: b.probes_high,
                },
            ),
            rule(
                "probe-budget-floor",
                Severity::Warning,
                RuleExpr::DerivedMin {
                    key: "probes.per_revtr".into(),
                    min: b.probes_low,
                },
            ),
            // Stage latency: the spoofed-batch timeout dominates rr_step;
            // its p99 must not grow past the clean envelope.
            rule(
                "rr-step-p99",
                Severity::Warning,
                RuleExpr::QuantileMax {
                    histogram: "stage.rr_step.virtual_us".into(),
                    q: 0.99,
                    max: b.rr_p99_us,
                },
            ),
            // A retry-less faulted campaign exhausts transient budgets;
            // the clean configuration never does.
            rule(
                "transient-exhaustion",
                Severity::Critical,
                RuleExpr::CounterMax {
                    counter: "probing.transient_exhausted".into(),
                    max: 0,
                },
            ),
            // Batch queueing (recorded by service campaigns; "no data" on
            // the monitor's serial campaign, which never queues).
            rule(
                "queue-depth-max",
                Severity::Warning,
                RuleExpr::QuantileMax {
                    histogram: "service.batch.queue_depth".into(),
                    q: 1.0,
                    max: 64,
                },
            ),
            // Memory ceiling on the campaign-wide ledger high-water total
            // (pure function of the seed; "no data" without profiling).
            rule(
                "mem-ceiling",
                Severity::Warning,
                RuleExpr::MemCeiling {
                    key: "mem.total.hiwater".into(),
                    max_bytes: b.mem_total_max,
                },
            ),
            // Capacity headroom of the event-loop control blocks against
            // the 50k-in-flight design capacity.
            rule(
                "capacity-headroom",
                Severity::Warning,
                RuleExpr::CapacityHeadroom {
                    key: "mem.engine.control_blocks.hiwater".into(),
                    ceiling: b.control_capacity,
                    min_headroom: b.control_headroom,
                },
            ),
            // Burn-rate guard on end-to-end latency: over rolling windows
            // of summed virtual time, the fraction of requests slower
            // than the clean watchdog deadline must stay inside a 2%
            // error budget at burn <= 1.
            rule(
                "latency-burn",
                Severity::Warning,
                RuleExpr::BurnRate {
                    window_ms: 3_600_000.0,
                    slow_ms: clean_deadline_ms(scale),
                    budget: 0.02,
                    max_burn: 1.0,
                },
            ),
        ],
    }
}

/// The policy a monitored campaign is judged against: the scale's
/// default policy, recalibrated when the engine runs the Appx.-E
/// verification mode (`EngineConfig::verify_dbr`, or `harden`, whose DBR
/// demotion re-probes the same way). That mode re-probes every
/// RR-revealed chain, so the probe band is raised by
/// [`VERIFY_PROBE_ALLOWANCE`] (severity-0 scenario runs measure 11.1–11.6
/// probes per revtr at standard scale against the clean 6.97–7.19), and
/// the campaign-wide mismatch count becomes a live signal: route
/// diversity alone produces a handful of mismatches per clean campaign
/// (1–4 at standard scale), a DBR-violating region drives the count past
/// the allowance. Judging by the engine that actually ran keeps a stock
/// engine's band tight and never lists a rule it cannot fire.
pub fn policy(spec: &CampaignSpec) -> SloPolicy {
    let mut policy = default_policy(spec.scale);
    if spec.engine.verify_dbr || spec.engine.harden {
        for rule in &mut policy.rules {
            if rule.name == "probe-budget-band" {
                if let RuleExpr::DerivedMax { max, .. } = &mut rule.expr {
                    *max += VERIFY_PROBE_ALLOWANCE;
                }
            }
        }
        policy.rules.push(SloRule {
            name: "dbr-verify-mismatch".to_string(),
            severity: Severity::Warning,
            expr: RuleExpr::CounterMax {
                counter: "core.verify.dbr_mismatch".into(),
                max: 10,
            },
        });
    }
    policy
}

/// The clean monitored campaign: no faults, profiling on (the memory
/// rules need live `mem.*` readings; the ledgers sit outside the
/// fingerprinted registry and journal), watchdog armed above the measured
/// clean worst case.
pub fn clean(scale: Scale, seed: u64) -> CampaignSpec {
    faulted(scale, seed, 0.0, 1)
}

/// The monitored campaign with fault injection dialled in: transient
/// `loss` and a uniform per-kind retry `budget`. With `loss > 0` the
/// watchdog tightens to the clean p99 *envelope* (see
/// [`envelope_deadline_ms`]): the question a faulted run answers is "does
/// the service still meet its healthy latency envelope under faults?",
/// and the extra 10 s spoofed-batch timeouts that injected loss causes
/// are exactly what the envelope catches. `faulted(_, _, 0.0, 1)` equals
/// [`clean`].
pub fn faulted(scale: Scale, seed: u64, loss: f64, budget: u32) -> CampaignSpec {
    CampaignSpec {
        loss,
        telemetry: Some(TelemetryConfig {
            watchdog_deadline_ms: Some(if loss > 0.0 {
                envelope_deadline_ms(scale)
            } else {
                clean_deadline_ms(scale)
            }),
            profile: true,
            ..TelemetryConfig::default()
        }),
        retry: RetryPolicy::uniform(budget),
        ..CampaignSpec::new(scale, seed)
    }
}

/// The same monitored campaign with a hostile-Internet scenario injected
/// and the Appx.-E verification mode on, so the `dbr-verify-mismatch`
/// rule has a live signal even on the stock engine. Unlike [`faulted`]'s
/// envelope tightening, scenario runs keep the *clean* watchdog deadline:
/// adversarial profiles are judged by which SLO rules they trip
/// (accuracy-floor for deception, transient-exhaustion and the probe band
/// for drops), and a watchdog armed below the measured clean worst case
/// would flag every profile alike — a siren, not a signal. An all-zero
/// severity config changes nothing and still passes the full policy.
pub fn with_scenario(mut spec: CampaignSpec, scenario: ScenarioConfig) -> CampaignSpec {
    if let Some(t) = spec.telemetry.as_mut() {
        t.watchdog_deadline_ms = Some(clean_deadline_ms(spec.scale));
    }
    spec.scenario = scenario;
    spec.engine.verify_dbr = true;
    spec
}

/// Everything one monitored campaign produced.
#[derive(Clone, Debug)]
pub struct MonitorReport {
    /// Requests attempted.
    pub requests: usize,
    /// Injected loss rate.
    pub loss: f64,
    /// Retry budget.
    pub budget: u32,
    /// Campaign metrics fingerprint, captured before alerts fired.
    pub metrics_fingerprint: u64,
    /// Campaign journal fingerprint.
    pub journal_fingerprint: u64,
    /// The pre-alert metrics snapshot (what the exports render).
    pub snapshot: MetricsSnapshot,
    /// Sorted journal records (what the trace export renders).
    pub journal: Vec<RequestRecord>,
    /// Derived `(key, value)` table, sorted by key.
    pub derived: Vec<(String, f64)>,
    /// The policy verdicts.
    pub slo: SloReport,
    /// Stuck-request flags, sorted.
    pub watchdog: Vec<WatchdogFlag>,
    /// The armed watchdog deadline (virtual ms).
    pub watchdog_deadline_ms: f64,
    /// Campaign-only virtual milliseconds (excludes ingress build).
    pub campaign_virtual_ms: f64,
    /// Campaign-only probe-counter delta.
    pub probes: Snapshot,
    /// Peak in-flight measurements on the event loop (the whole campaign
    /// is admitted up front, so this equals the campaign size).
    pub inflight_peak: usize,
    /// Measurement-cache stats at end of run.
    pub cache: revtr_probing::CacheStats,
    /// Stop-set effectiveness counters (all-zero with the knob off).
    pub stopset: revtr_probing::StopSetSnapshot,
    /// Simulator route computations.
    pub route_computes: u64,
}

/// End-to-end request latency p99 and max (virtual ms) as derived keys.
pub(crate) fn latency_keys(snapshot: &MetricsSnapshot) -> [(String, f64); 2] {
    let (p99_ms, max_ms) = snapshot
        .histogram("request.virtual_us")
        .map(|h| (h.quantile(0.99) as f64 / 1000.0, h.max() as f64 / 1000.0))
        .unwrap_or((0.0, 0.0));
    [
        ("latency.p99_ms".into(), p99_ms),
        ("latency.max_ms".into(), max_ms),
    ]
}

/// Run the monitored campaign `spec` on the deterministic event loop and
/// judge it. The loop schedule is a pure function of the inputs, so every
/// run is deterministic; the underlying telemetry is additionally
/// interleaving-independent (gated by `tests/metamorphic.rs`).
pub fn run(spec: &CampaignSpec) -> MonitorReport {
    let ctx = spec.context();
    let campaign = spec.assemble(&ctx);
    let run = campaign.run(&ctx.workload());
    judge(spec, &campaign, &run)
}

/// Judge a finished campaign against [`policy`]`(spec)`: fingerprints
/// first, then the derived table, then the verdicts, which only then are
/// fired into the registry as `slo.alert.<rule>` counters.
pub(crate) fn judge(
    spec: &CampaignSpec,
    campaign: &Campaign<'_>,
    run: &CampaignRun,
) -> MonitorReport {
    let telemetry = &campaign.telemetry;
    // Identity first: fingerprints before judgment.
    let snapshot = telemetry.metrics();
    let metrics_fingerprint = snapshot.fingerprint();
    let journal_fingerprint = telemetry.journal_fingerprint();
    let journal = telemetry.journal_records();
    let watchdog = telemetry.watchdog_flags();

    let mut derived = run
        .judgment
        .derived(run.probes.option_probes(), watchdog.len());
    derived.extend(latency_keys(&snapshot));
    let ss = run.stopset;
    derived.extend([
        ("stopset.backward_hits".into(), ss.backward_hits as f64),
        ("stopset.backward_misses".into(), ss.backward_misses as f64),
        ("stopset.direct_skips".into(), ss.direct_skips as f64),
        ("stopset.forward_hits".into(), ss.forward_hits as f64),
        ("stopset.spoof_skips".into(), ss.spoof_skips as f64),
        ("stopset.vp_skips".into(), ss.vp_skips as f64),
        ("stopset.winner_hits".into(), ss.winner_hits as f64),
    ]);
    // Resource ledgers from the profiling arm, surfaced as `mem.*`
    // derived keys only after the identity was captured. Without
    // profiling these keys are simply absent and the memory rules pass
    // as "no data".
    let resources = telemetry.resources();
    let mut mem_total_hiwater = 0u64;
    for l in &resources.ledgers {
        mem_total_hiwater += l.hiwater;
        derived.push((format!("mem.{}.hiwater", l.name), l.hiwater as f64));
    }
    derived.push(("mem.total.hiwater".into(), mem_total_hiwater as f64));
    derived.push(("events_per_revtr".into(), run.per_revtr(run.outcome.events)));
    derived.push((
        "bytes_per_revtr".into(),
        run.per_revtr(run.probes.probe_bytes()),
    ));
    derived.sort_by(|a, b| a.0.cmp(&b.0));

    let slo = policy(spec).evaluate(&SloInput {
        snapshot: &snapshot,
        requests: &journal,
        derived: &derived,
    });
    // Judgment becomes metrics only after the identity was captured.
    slo.fire_into(telemetry);

    MonitorReport {
        requests: run.requests(),
        loss: spec.loss,
        budget: spec.retry.rr_attempts,
        metrics_fingerprint,
        journal_fingerprint,
        snapshot,
        journal,
        derived,
        slo,
        watchdog,
        watchdog_deadline_ms: spec
            .telemetry
            .as_ref()
            .and_then(|t| t.watchdog_deadline_ms)
            .unwrap_or(0.0),
        campaign_virtual_ms: run.virtual_ms,
        probes: run.probes,
        inflight_peak: run.outcome.inflight_peak,
        cache: run.cache,
        stopset: ss,
        route_computes: run.route_computes,
    }
}

impl MonitorReport {
    /// One derived value by key (0.0 when absent).
    pub fn value(&self, key: &str) -> f64 {
        self.derived
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The derived-values table.
    pub fn derived_table(&self) -> Table {
        let mut t = Table::new("Monitor: derived values", &["key", "value"]);
        for (k, v) in &self.derived {
            t.row(&[k.as_str(), &format!("{v:.4}")]);
        }
        t
    }

    /// The full SLO verdict table (every rule, pass or fail).
    pub fn verdict_table(&self) -> Table {
        let mut t = Table::new(
            "Monitor: SLO verdicts",
            &[
                "rule",
                "severity",
                "verdict",
                "value",
                "threshold",
                "detail",
            ],
        );
        for v in &self.slo.verdicts {
            t.row(&[
                v.rule.as_str(),
                v.severity.label(),
                if v.pass { "pass" } else { "FAIL" },
                &format!("{:.4}", v.value),
                &format!("{:.4}", v.threshold),
                v.detail.as_str(),
            ]);
        }
        t
    }

    /// The alert table (failing rules only).
    pub fn alert_table(&self) -> Table {
        let mut t = Table::new(
            "Monitor: alerts",
            &["rule", "severity", "value", "threshold", "detail"],
        );
        for v in self.slo.alerts() {
            t.row(&[
                v.rule.as_str(),
                v.severity.label(),
                &format!("{:.4}", v.value),
                &format!("{:.4}", v.threshold),
                v.detail.as_str(),
            ]);
        }
        t
    }

    /// The stuck-request watchdog table.
    pub fn watchdog_table(&self) -> Table {
        let mut t = Table::new(
            "Monitor: stuck-request watchdog",
            &[
                "src",
                "dst",
                "status",
                "virtual ms",
                "deadline ms",
                "stuck in",
                "since ms",
            ],
        );
        for f in &self.watchdog {
            t.row(&[
                f.src.to_string(),
                f.dst.to_string(),
                f.status.to_string(),
                format!("{:.1}", f.virtual_us as f64 / 1000.0),
                format!("{:.1}", f.deadline_us as f64 / 1000.0),
                f.stage.to_string(),
                format!("{:.1}", f.stage_t_us as f64 / 1000.0),
            ]);
        }
        t
    }

    /// Whether the run passed every SLO rule.
    pub fn is_clean(&self) -> bool {
        self.slo.is_clean()
    }

    /// Render the full monitor report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "monitor: {} requests (loss {:.2}, retry budget {}), {:.1} virtual s",
            self.requests,
            self.loss,
            self.budget,
            self.campaign_virtual_ms / 1000.0
        );
        // Byte-identical to the `metrics` report's fingerprint line: the
        // ci.sh neutrality gate diffs the two.
        let _ = writeln!(
            s,
            "fingerprints: metrics {:#018x}  journal {:#018x}  ({} journalled)",
            self.metrics_fingerprint,
            self.journal_fingerprint,
            self.journal.len()
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "{}", self.derived_table().render());
        let _ = writeln!(s, "{}", self.verdict_table().render());
        if self.slo.alert_count() > 0 {
            let _ = writeln!(s, "{}", self.alert_table().render());
        }
        let _ = writeln!(
            s,
            "watchdog: {} flagged (deadline {:.0} virtual ms)",
            self.watchdog.len(),
            self.watchdog_deadline_ms
        );
        if !self.watchdog.is_empty() {
            let _ = writeln!(s, "{}", self.watchdog_table().render());
        }
        let _ = write!(
            s,
            "slo gate: {} ({} of {} rules firing)",
            if self.is_clean() { "PASS" } else { "FAIL" },
            self.slo.alert_count(),
            self.slo.verdicts.len()
        );
        s
    }

    /// Write the Chrome trace and Prometheus exposition under `dir`,
    /// returning their paths. Both files are byte-deterministic.
    pub fn save_exports(&self, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let trace = dir.join("trace.json");
        std::fs::write(&trace, chrome_trace_json(&self.journal))?;
        let prom = dir.join("metrics.prom");
        std::fs::write(&prom, prometheus_text(&self.snapshot))?;
        Ok((trace, prom))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_smoke_monitor_is_quiet_and_deterministic() {
        let spec = clean(Scale::Smoke, 1);
        let a = run(&spec);
        let b = run(&spec);
        assert_eq!(a.metrics_fingerprint, b.metrics_fingerprint);
        assert_eq!(a.journal_fingerprint, b.journal_fingerprint);
        assert_eq!(a.render(), b.render(), "report not byte-deterministic");
        assert_eq!(chrome_trace_json(&a.journal), chrome_trace_json(&b.journal));
        assert_eq!(prometheus_text(&a.snapshot), prometheus_text(&b.snapshot));

        assert!(
            a.is_clean(),
            "clean smoke run fired alerts:\n{}",
            a.render()
        );
        assert!(a.watchdog.is_empty(), "clean run flagged: {:?}", a.watchdog);
        assert!(a.render().contains("slo gate: PASS"));
    }

    #[test]
    fn faulted_smoke_monitor_fires_coverage_and_stuck_alerts() {
        let r = run(&faulted(Scale::Smoke, 1, 0.3, 1));
        assert!(!r.is_clean(), "faulted run stayed clean:\n{}", r.render());
        let firing: Vec<&str> = r.slo.alerts().map(|v| v.rule.as_str()).collect();
        assert!(
            firing.contains(&"coverage-floor"),
            "coverage alert missing: {firing:?}\n{}",
            r.render()
        );
        assert!(
            firing.contains(&"stuck-requests"),
            "stuck-request alert missing: {firing:?}\n{}",
            r.render()
        );
        assert!(!r.watchdog.is_empty());
        // The alert counters landed in the registry, but only after the
        // fingerprint was taken.
        assert_ne!(r.metrics_fingerprint, 0);
        assert!(r.render().contains("slo gate: FAIL"));
    }

    /// Calibration helper (manual, `--ignored --nocapture`): prints the
    /// measurements the `baselines()` constants and the watchdog deadline
    /// are derived from, clean vs faulted, seeds {1, 7, 42}. Set
    /// `MONITOR_CALIBRATE_STANDARD=1` to measure the standard scale
    /// (release build recommended). This is step 1 of the baseline-update
    /// procedure in DESIGN.md §8.
    #[test]
    #[ignore = "manual calibration helper; see DESIGN.md §8"]
    fn calibrate_policy_baselines() {
        let scale = if std::env::var("MONITOR_CALIBRATE_STANDARD").is_ok() {
            Scale::Standard
        } else {
            Scale::Smoke
        };
        for seed in [1u64, 7, 42] {
            for (label, spec) in [
                ("clean  ", clean(scale, seed)),
                ("faulted", faulted(scale, seed, 0.3, 1)),
            ] {
                let r = run(&spec);
                let rr_p99 = r
                    .snapshot
                    .histogram("stage.rr_step.virtual_us")
                    .map(|h| h.quantile(0.99))
                    .unwrap_or(0);
                println!(
                    "{} seed {seed:>2} {label}: coverage {:.4}  accuracy {:.4}  \
                     probes/revtr {:.2}  p99 {:.0} ms  max {:.0} ms  rr_step p99 {} us  flagged {}",
                    scale.name(),
                    r.value("coverage"),
                    r.value("accuracy"),
                    r.value("probes.per_revtr"),
                    r.value("latency.p99_ms"),
                    r.value("latency.max_ms"),
                    rr_p99,
                    r.watchdog.len(),
                );
            }
        }
    }

    #[test]
    fn monitor_fingerprints_match_the_metrics_profile() {
        // The neutrality property behind the ci.sh gate: monitoring a
        // clean campaign reports the exact fingerprints `metrics` does.
        let m = run(&clean(Scale::Smoke, 1));
        let p = crate::metrics::run(Scale::Smoke, 1);
        assert_eq!(m.metrics_fingerprint, p.metrics_fingerprint);
        assert_eq!(m.journal_fingerprint, p.journal_fingerprint);
        assert_eq!(m.journal.len(), p.journal.len());
    }
}
