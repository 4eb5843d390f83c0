//! The one campaign pipeline the gated harnesses share.
//!
//! Every §5-style number is judged on the same pipeline: build the
//! simulated Internet, survey the ingresses (§4.3), assemble the
//! measurement system, run the campaign on the event loop, then score the
//! results against the ground-truth oracle. The steps live here so no
//! harness can rebuild them in a different order:
//!
//! 1. a [`CampaignSpec`] names the run: scale, seed, the simulator
//!    overrides (loss, scenario), the engine, telemetry, retry and
//!    event-loop configurations;
//! 2. [`CampaignSpec::context`] builds the simulator;
//! 3. [`CampaignSpec::assemble`] wires telemetry → prober → survey →
//!    system over that context;
//! 4. [`Campaign::run`] runs a workload and returns a [`CampaignRun`]:
//!    the outcome, the campaign-only probe and virtual-time deltas, the
//!    cache and stop-set stats, and one oracle [`Judgment`].
//!
//! Harnesses that drive the system some other way (a serial `measure`
//! loop, the open-loop service, the threaded reference engine) stop after
//! step 3.

use crate::context::{EvalContext, EvalScale};
use revtr::{CampaignOutcome, EngineConfig, LoopConfig, RevtrResult, RevtrSystem};
use revtr_netsim::oracle::Oracle;
use revtr_netsim::{Addr, ScenarioConfig, SimConfig};
use revtr_probing::{CacheStats, RetryPolicy, Snapshot, StopSetSnapshot};
use revtr_telemetry::{Telemetry, TelemetryConfig};
use revtr_vpselect::{Heuristics, IngressDb};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The two campaign sizes every gated harness runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny topology, 25-request campaign: tests and quick looks.
    Smoke,
    /// Paper-era topology, 2000-request campaign: the reproduction.
    Standard,
}

impl Scale {
    /// The CLI name (`--scale smoke|standard`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Standard => "standard",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::Smoke, Scale::Standard]
            .into_iter()
            .find(|s| s.name() == name)
    }

    /// The topology this scale runs on.
    pub fn sim_config(self) -> SimConfig {
        match self {
            Scale::Smoke => SimConfig::tiny(),
            Scale::Standard => SimConfig::era_2020(),
        }
    }

    /// The workload sizes of this scale under a master seed.
    pub fn eval_scale(self, seed: u64) -> EvalScale {
        let base = match self {
            Scale::Smoke => EvalScale::smoke(),
            Scale::Standard => EvalScale::standard(),
        };
        EvalScale { seed, ..base }
    }
}

/// Everything that decides what a campaign measures.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Topology and workload sizes.
    pub scale: Scale,
    /// Master seed (topology, workload, faults).
    pub seed: u64,
    /// Injected transient probe-loss probability (`SimConfig::faults`).
    pub loss: f64,
    /// Hostile-Internet profiles (`SimConfig::scenario`); inert by default.
    pub scenario: ScenarioConfig,
    /// The measurement engine. The scale's atlas size is applied on top.
    pub engine: EngineConfig,
    /// Telemetry for the simulator, prober and engine; `None` = disabled.
    pub telemetry: Option<TelemetryConfig>,
    /// Per-kind retry budgets of the prober.
    pub retry: RetryPolicy,
    /// Event-loop schedule of [`Campaign::run`].
    pub event_loop: LoopConfig,
}

impl CampaignSpec {
    /// The plain revtr 2.0 campaign: no faults, no scenario, no
    /// telemetry, no retries, the default serial event loop.
    pub fn new(scale: Scale, seed: u64) -> CampaignSpec {
        CampaignSpec {
            scale,
            seed,
            loss: 0.0,
            scenario: ScenarioConfig::default(),
            engine: EngineConfig::revtr2(),
            telemetry: None,
            retry: RetryPolicy::default(),
            event_loop: LoopConfig::default(),
        }
    }

    /// The scale's topology with this spec's loss and scenario applied.
    pub(crate) fn sim_config(&self) -> SimConfig {
        let mut cfg = self.scale.sim_config();
        cfg.faults.probe_loss = self.loss;
        cfg.scenario = self.scenario.clone();
        cfg
    }

    /// Build the simulated Internet and its workload helpers.
    pub fn context(&self) -> EvalContext {
        EvalContext::new(self.sim_config(), self.scale.eval_scale(self.seed))
    }

    /// Wire the measurement system over `ctx`: telemetry, prober, the
    /// §4.3 ingress survey, then the system. The order is part of every
    /// campaign fingerprint: the survey's probes share the prober's
    /// clock and counters.
    pub fn assemble<'c>(&self, ctx: &'c EvalContext) -> Campaign<'c> {
        let telemetry = self
            .telemetry
            .clone()
            .map_or_else(Telemetry::disabled, Telemetry::with_config);
        ctx.sim.set_telemetry(telemetry.clone());
        let prober = ctx
            .prober()
            .with_retry_policy(self.retry)
            .with_telemetry(telemetry.clone());
        let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
        let system = ctx.build_system(prober, self.engine, ingress.clone());
        Campaign {
            ctx,
            telemetry,
            ingress,
            system,
            event_loop: self.event_loop,
        }
    }
}

/// An assembled measurement system, ready to run.
pub struct Campaign<'c> {
    /// The simulated Internet it measures.
    pub ctx: &'c EvalContext,
    /// The telemetry handle shared by simulator, prober and engine.
    pub telemetry: Telemetry,
    /// The surveyed ingress database.
    pub ingress: Arc<IngressDb>,
    /// The measurement system.
    pub system: RevtrSystem<'c>,
    /// The schedule [`Campaign::run`] uses.
    pub event_loop: LoopConfig,
}

impl Campaign<'_> {
    /// Run `workload` as one event-loop campaign and judge it. The
    /// judgment runs after every reading is taken; oracle lookups send no
    /// probes and advance no clock, so it cannot change what the campaign
    /// measured.
    pub fn run(&self, workload: &[(Addr, Addr)]) -> CampaignRun {
        let prober = self.system.prober();
        let probes_before = prober.counters().snapshot();
        let virtual_before = prober.clock().now_ms();
        let started = Instant::now();
        let outcome = self
            .system
            .run_campaign(workload, self.event_loop)
            .expect("campaign measurement panicked");
        let wall_s = started.elapsed().as_secs_f64();
        let probes = prober.counters().snapshot().since(&probes_before);
        let virtual_ms = prober.clock().now_ms() - virtual_before;
        let cache = prober.cache().stats();
        let stopset = self.system.stopset().stats();
        let route_computes = self.ctx.sim.route_computes();
        let judgment = Judgment::of(
            &self.ctx.sim.oracle(),
            workload.len(),
            workload
                .iter()
                .zip(&outcome.results)
                .map(|(&(dst, src), r)| (dst, src, r)),
        );
        CampaignRun {
            outcome,
            probes,
            virtual_ms,
            wall_s,
            cache,
            stopset,
            route_computes,
            judgment,
        }
    }
}

/// What one campaign run produced.
#[derive(Debug)]
pub struct CampaignRun {
    /// Results (input order) and the loop's own accounting.
    pub outcome: CampaignOutcome,
    /// Campaign-only probe-counter delta (the survey excluded).
    pub probes: Snapshot,
    /// Campaign-only virtual milliseconds.
    pub virtual_ms: f64,
    /// Wall-clock seconds of the event loop alone.
    pub wall_s: f64,
    /// Measurement-cache stats at end of run.
    pub cache: CacheStats,
    /// Stop-set effectiveness counters (all-zero with stop sets off).
    pub stopset: StopSetSnapshot,
    /// Simulator route computations, survey included.
    pub route_computes: u64,
    /// The oracle's verdict on the results.
    pub judgment: Judgment,
}

impl CampaignRun {
    /// Requests attempted.
    pub fn requests(&self) -> usize {
        self.judgment.attempted
    }

    /// `n` per attempted request (0 for an empty campaign).
    pub fn per_revtr(&self, n: u64) -> f64 {
        frac(n as usize, self.requests())
    }
}

/// The oracle's campaign verdict: how many requests came back complete,
/// and how many of those the oracle could compare and found AS-sound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Judgment {
    /// Requests the coverage is measured against.
    pub attempted: usize,
    /// Results with a complete reverse path.
    pub complete: usize,
    /// Complete results the oracle has a true AS path for.
    pub compared: usize,
    /// Compared results whose every measured AS lies on the true path.
    pub sound: usize,
}

fn frac(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl Judgment {
    /// Judge `(dst, src, result)` triples out of `attempted` requests.
    pub(crate) fn of<'r>(
        oracle: &Oracle<'_>,
        attempted: usize,
        measured: impl IntoIterator<Item = (Addr, Addr, &'r RevtrResult)>,
    ) -> Judgment {
        let mut j = Judgment {
            attempted,
            ..Judgment::default()
        };
        // Tiled and production workloads repeat pairs; the true path is
        // a pure function of the pair, so each is walked once.
        let mut truths = HashMap::new();
        for (dst, src, r) in measured {
            if !r.complete() {
                continue;
            }
            j.complete += 1;
            let Some(truth) = truths
                .entry((dst, src))
                .or_insert_with(|| oracle.true_as_path(dst, src))
            else {
                continue;
            };
            j.compared += 1;
            let mut ases: Vec<_> = r.addrs().filter_map(|a| oracle.true_as_of(a)).collect();
            ases.dedup();
            if ases.iter().all(|a| truth.contains(a)) {
                j.sound += 1;
            }
        }
        j
    }

    /// Complete results per attempted request.
    pub fn coverage(&self) -> f64 {
        frac(self.complete, self.attempted)
    }

    /// AS-sound results per compared result.
    pub fn accuracy(&self) -> f64 {
        frac(self.sound, self.compared)
    }

    /// Compared results the oracle found AS-unsound.
    pub fn unsound(&self) -> usize {
        self.compared - self.sound
    }

    /// The derived-value keys every SLO policy reads: accuracy,
    /// `audit.as_unsound`, coverage, `probes.per_revtr` (option probes
    /// per attempted request), requests and `watchdog.flagged`.
    pub(crate) fn derived(&self, option_probes: u64, flagged: usize) -> Vec<(String, f64)> {
        vec![
            ("accuracy".into(), self.accuracy()),
            ("audit.as_unsound".into(), self.unsound() as f64),
            ("coverage".into(), self.coverage()),
            (
                "probes.per_revtr".into(),
                frac(option_probes as usize, self.attempted),
            ),
            ("requests".into(), self.attempted as f64),
            ("watchdog.flagged".into(), flagged as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_round_trip() {
        for s in [Scale::Smoke, Scale::Standard] {
            assert_eq!(Scale::from_name(s.name()), Some(s));
        }
        assert_eq!(Scale::from_name("huge"), None);
        assert_eq!(Scale::Standard.eval_scale(7).seed, 7);
        assert_eq!(
            Scale::Standard.eval_scale(7).n_revtrs,
            EvalScale::standard().n_revtrs
        );
    }

    #[test]
    fn smoke_campaign_runs_and_judges() {
        let spec = CampaignSpec::new(Scale::Smoke, 1);
        let ctx = spec.context();
        let campaign = spec.assemble(&ctx);
        let workload = ctx.workload();
        let run = campaign.run(&workload);
        assert_eq!(run.outcome.results.len(), workload.len());
        assert_eq!(run.requests(), workload.len());
        let j = run.judgment;
        assert!(j.sound <= j.compared && j.compared <= j.complete && j.complete <= j.attempted);
        assert!(j.coverage() > 0.5, "smoke coverage collapsed: {j:?}");
        assert!(run.probes.option_probes() > 0);
        assert!(run.virtual_ms > 0.0);
    }
}
