//! One repeat of a workload: set up a fresh system, serve the workload,
//! then judge every result against the oracle and the audit replay.
//!
//! Every call into the crates goes through a public function and is
//! wrapped in a span of the benchmark's own [`Tracer`]; the crates are
//! built from source and not changed.

use crate::layers::{self, Profile, Replays};
use crate::speed::{self, scaled};
use crate::trace::{median, percentile, ratio, Tracer};
use rand::rngs::StdRng;
use rand::{SeedableRng, SliceRandom};
use revtr::{EngineConfig, LoopConfig, RevtrResult, RevtrSystem};
use revtr_audit::Auditor;
use revtr_eval::loadtest::{self, Pattern};
use revtr_eval::{EvalContext, EvalScale};
use revtr_loadgen::generate;
use revtr_netsim::{Addr, SimConfig};
use revtr_probing::{Snapshot, StopSetSnapshot};
use revtr_service::{ApiKey, RateLimits, RevtrService, TimedRequest};
use revtr_telemetry::{Fnv, Telemetry, TelemetryConfig};
use revtr_vpselect::Heuristics;
use serde::Serialize;
use std::fmt::Write as _;
use std::sync::Arc;

/// Virtual hours of arrivals the service workloads offer.
const SERVICE_HOURS: f64 = 72.0;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A closed batch of `EvalContext::workload()` pairs over 8 sources.
    Campaign,
    /// The four-tenant steady Zipf stream through the open-loop service.
    ServiceSteady,
    /// The same service under the x10 bronze flash crowd.
    ServiceFlash,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Campaign,
        Workload::ServiceSteady,
        Workload::ServiceFlash,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::ServiceSteady => "service-steady",
            Workload::ServiceFlash => "service-flash",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn pattern(self) -> Option<Pattern> {
        match self {
            Workload::Campaign => None,
            Workload::ServiceSteady => Some(Pattern::Steady),
            Workload::ServiceFlash => Some(Pattern::FlashCrowd),
        }
    }
}

/// Wall seconds of each timed layer call of one repeat, and of the
/// calibrations around set-up and serve.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Timings {
    /// `Sim::build`.
    pub sim_s: f64,
    /// `IngressDb::build`: the §4.3 ingress survey.
    pub survey_s: f64,
    /// `RevtrSystem::new`, including the atlas probe population.
    pub system_s: f64,
    /// `RevtrSystem::register_source` for every source.
    pub atlas_s: f64,
    /// Tenant and source binding of the service workloads.
    pub bind_s: f64,
    /// From the start of `Sim::build` to ready-to-serve.
    pub setup_s: f64,
    /// `run_campaign` / `run_open_loop`.
    pub serve_s: f64,
    /// Oracle judgment of every complete result.
    pub judge_s: f64,
    /// `Auditor::audit` of every result.
    pub audit_s: f64,
    /// [`speed::calibrate`] before set-up, between set-up and serve, and
    /// after serve.
    pub cal_start_s: f64,
    pub cal_ready_s: f64,
    pub cal_served_s: f64,
}

impl Timings {
    /// A set-up phase's wall seconds at the reference host's speed.
    pub fn setup_scaled(&self, wall_s: f64) -> f64 {
        scaled(wall_s, self.cal_start_s, self.cal_ready_s)
    }

    /// A serve (or later) phase's wall seconds at the reference speed.
    pub fn serve_scaled(&self, wall_s: f64) -> f64 {
        scaled(wall_s, self.cal_ready_s, self.cal_served_s)
    }
}

/// Everything a repeat produced that must be bit-identical across
/// repeats of one seed: the workload, its results and every count.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// FNV-1a over every request's status and hops (or shed reason).
    pub fingerprint: u64,
    /// Requests offered.
    pub offered: u64,
    /// Requests the engine finished (any status).
    pub served: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Complete reverse paths.
    pub complete: u64,
    /// Complete paths the oracle has a true AS path for.
    pub compared: u64,
    /// Compared paths whose measured ASes all lie on the true AS path.
    pub sound: u64,
    /// Virtual request duration p50 and p99 over served requests, seconds.
    pub latency_p50_s: f64,
    pub latency_p99_s: f64,
    /// Probes sent during serve, by kind.
    pub probes: Snapshot,
    /// Packets the ingress survey sent.
    pub survey_probes: u64,
    /// Simulator route computations during serve.
    pub route_computes: u64,
    /// Event-loop control-block steps during serve.
    pub events: u64,
    /// Measurement-cache hits and lookups during serve.
    pub cache_hits: u64,
    pub cache_lookups: u64,
    /// Stop-set counters during serve.
    pub stopset: StopSetSnapshot,
    /// Service accounting (zero on the campaign, which has no admission).
    pub admitted: u64,
    pub waves: u64,
    pub degrade_transitions: u64,
    pub queue_depth_peak: u64,
    pub atlas_refreshes: u64,
    /// Audit findings that failed: unsound hops and policy violations.
    pub audit_unsound: u64,
    pub audit_policy: u64,
    /// One line per failing audited hop.
    pub audit_failures: Vec<String>,
    /// Requests with at least one failing audited hop.
    pub audit_failed_requests: u64,
}

/// A repeat that ended in an engine error.
pub struct EngineError {
    /// Requests the repeat offered (0 if it failed before the inputs
    /// were generated).
    pub offered: u64,
    pub msg: String,
}

/// One setup + serve + judgment.
pub struct Repeat {
    /// Span run id.
    pub run: usize,
    /// Whether telemetry (with the profiler) was attached.
    pub traced: bool,
    pub timings: Timings,
    pub outcome: Outcome,
    /// Ledger high-water marks and stage profile (traced repeats only).
    pub profile: Option<Profile>,
    /// Layer replays (the first traced repeat only).
    pub replays: Option<Replays>,
}

/// What the serving front end returned, in arrival order.
struct Served {
    results: Vec<Option<RevtrResult>>,
    shed: Vec<Option<&'static str>>,
    events: u64,
    admitted: u64,
    waves: u64,
    degrade_transitions: u64,
    queue_depth_peak: u64,
    atlas_refreshes: u64,
}

/// The system as the workload drives it.
enum Front<'s> {
    Campaign(RevtrSystem<'s>),
    Service(RevtrService<'s>, Vec<ApiKey>),
}

impl<'s> Front<'s> {
    fn system(&self) -> &RevtrSystem<'s> {
        match self {
            Front::Campaign(sys) => sys,
            Front::Service(svc, _) => svc.system(),
        }
    }
}

/// Run one repeat of `workload` at `seed`. `traced` attaches a profiling
/// telemetry handle; otherwise telemetry is `Telemetry::disabled()`.
/// `replay` also times the layer replays on the warm system afterwards.
/// An engine error (a failed source binding, a panicked campaign or a
/// rejected open-loop run) is returned as `Err`.
pub fn run(
    workload: Workload,
    seed: u64,
    traced: bool,
    replay: bool,
    run: usize,
    tr: &mut Tracer,
) -> Result<Repeat, EngineError> {
    tr.set_run(run);
    let tele = if traced {
        Telemetry::with_config(TelemetryConfig {
            profile: true,
            ..TelemetryConfig::default()
        })
    } else {
        Telemetry::disabled()
    };
    let mut t = Timings {
        cal_start_s: speed::calibrate(),
        ..Timings::default()
    };

    let setup = tr.enter("setup");
    let span = tr.enter("netsim.build");
    let ctx = system_context();
    t.sim_s = tr.exit(span);
    ctx.sim.set_telemetry(tele.clone());
    let prober = ctx.prober().with_telemetry(tele.clone());
    let before_survey = prober.counters().snapshot();
    let span = tr.enter("vpselect.survey");
    let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
    t.survey_s = tr.exit(span);
    let survey_probes = prober
        .counters()
        .snapshot()
        .since(&before_survey)
        .all_packets();
    let mut ecfg = EngineConfig::revtr2();
    ecfg.use_stop_sets = true;
    let registry_only_ip2as = ecfg.registry_only_ip2as;
    let span = tr.enter("core.system_new");
    let system = ctx.build_system(prober, ecfg, ingress);
    t.system_s = tr.exit(span);
    let sources = ctx.sources();
    let span = tr.enter("atlas.bootstrap");
    for &src in &sources {
        system.register_source(src);
    }
    t.atlas_s = tr.exit(span);
    let pattern = workload.pattern();
    let front = match pattern {
        None => Front::Campaign(system),
        Some(pattern) => {
            let span = tr.enter("service.bind");
            let service = RevtrService::new(system);
            let mut keys = Vec::new();
            for p in loadtest::tenant_mix(pattern, SERVICE_HOURS) {
                let key = service.add_user(
                    &p.name,
                    RateLimits {
                        max_parallel: 1_000_000,
                        max_per_day: p.daily_quota.unwrap_or(RateLimits::default().max_per_day),
                    },
                );
                for &src in &sources {
                    service.add_source(key, src).map_err(|e| EngineError {
                        offered: 0,
                        msg: format!("source bootstrap of {src} failed: {e:?}"),
                    })?;
                }
                keys.push(key);
            }
            t.bind_s = tr.exit(span);
            Front::Service(service, keys)
        }
    };
    t.setup_s = tr.exit(setup);

    // Inputs are generated before serve timing starts.
    let span = tr.enter("loadgen.generate");
    let (pairs, requests) = match pattern {
        None => (campaign_pairs(&ctx, seed), Vec::new()),
        Some(pattern) => {
            let requests = service_requests(&ctx, pattern, seed);
            (requests.iter().map(|r| (r.dst, r.src)).collect(), requests)
        }
    };
    tr.exit(span);

    t.cal_ready_s = speed::calibrate();
    let sys = front.system();
    let probes_before = sys.prober().counters().snapshot();
    let cache_before = sys.prober().cache().stats();
    let stopset_before = sys.stopset().stats();
    let routes_before = ctx.sim.route_computes();
    let span = tr.enter("core.serve");
    let served = match &front {
        Front::Campaign(sys) => sys
            .run_campaign(&pairs, LoopConfig::default())
            .map(|o| Served {
                shed: vec![None; o.results.len()],
                results: o.results.into_iter().map(Some).collect(),
                events: o.events,
                admitted: pairs.len() as u64,
                waves: 0,
                degrade_transitions: 0,
                queue_depth_peak: 0,
                atlas_refreshes: 0,
            })
            .map_err(|_| "run_campaign panicked".to_string()),
        Front::Service(svc, keys) => svc
            .run_open_loop(keys, &requests, &loadtest::plan(), LoopConfig::default())
            .map(|o| Served {
                shed: o.sheds.iter().map(|s| s.map(|r| r.label())).collect(),
                results: o.results,
                events: o.events,
                admitted: o.classes.iter().map(|c| c.admitted).sum(),
                waves: o.waves as u64,
                degrade_transitions: o.transitions.len() as u64,
                queue_depth_peak: o
                    .classes
                    .iter()
                    .map(|c| c.queue_depth_peak)
                    .max()
                    .unwrap_or(0),
                atlas_refreshes: o.atlas_refreshes,
            })
            .map_err(|e| format!("run_open_loop failed: {e:?}")),
    };
    t.serve_s = tr.exit(span);
    t.cal_served_s = speed::calibrate();
    let served = served.map_err(|msg| EngineError {
        offered: pairs.len() as u64,
        msg,
    })?;
    let probes = sys.prober().counters().snapshot().since(&probes_before);
    let cache_after = sys.prober().cache().stats();
    let stopset = sys.stopset().stats().since(&stopset_before);
    let route_computes = ctx.sim.route_computes() - routes_before;

    // Judgment: the oracle's true AS path for every complete result.
    let span = tr.enter("judge");
    let oracle = ctx.sim.oracle();
    let (mut complete, mut compared, mut sound) = (0u64, 0u64, 0u64);
    let mut durations = Vec::new();
    for r in served.results.iter().flatten() {
        durations.push(r.stats.duration_s);
        if !r.complete() {
            continue;
        }
        complete += 1;
        let Some(truth) = oracle.true_as_path(r.dst, r.src) else {
            continue;
        };
        compared += 1;
        let mut measured: Vec<_> = r.addrs().filter_map(|a| oracle.true_as_of(a)).collect();
        measured.dedup();
        if measured.iter().all(|a| truth.contains(a)) {
            sound += 1;
        }
    }
    t.judge_s = tr.exit(span);
    durations.sort_by(f64::total_cmp);

    // The audit replay of every result's stitch trace.
    let span = tr.enter("audit");
    let auditor = Auditor::new(&ctx.sim, registry_only_ip2as);
    let (mut audit_unsound, mut audit_policy, mut audit_failed_requests) = (0u64, 0u64, 0u64);
    let mut audit_failures = Vec::new();
    for r in served.results.iter().flatten() {
        let audit = auditor.audit(r);
        if !audit.is_clean() {
            audit_failed_requests += 1;
        }
        for f in audit.failures() {
            match f.verdict {
                revtr_audit::Verdict::PolicyViolation { .. } => audit_policy += 1,
                _ => audit_unsound += 1,
            }
            audit_failures.push(format!(
                "dst {} src {} hop {} kind {}: {:?}",
                r.dst, r.src, f.index, f.kind, f.verdict
            ));
        }
    }
    t.audit_s = tr.exit(span);

    let profile = traced.then(|| Profile::read(&tele));
    let replays = replay.then(|| layers::replay(&ctx.sim, sys, &ctx.vps(), &pairs, seed, tr));

    let outcome = Outcome {
        fingerprint: fingerprint(&served),
        offered: pairs.len() as u64,
        served: durations.len() as u64,
        shed: served.shed.iter().flatten().count() as u64,
        complete,
        compared,
        sound,
        latency_p50_s: percentile(&durations, 0.50),
        latency_p99_s: percentile(&durations, 0.99),
        probes,
        survey_probes,
        route_computes,
        events: served.events,
        cache_hits: cache_after.hits - cache_before.hits,
        cache_lookups: (cache_after.hits + cache_after.misses)
            - (cache_before.hits + cache_before.misses),
        stopset,
        admitted: served.admitted,
        waves: served.waves,
        degrade_transitions: served.degrade_transitions,
        queue_depth_peak: served.queue_depth_peak,
        atlas_refreshes: served.atlas_refreshes,
        audit_unsound,
        audit_policy,
        audit_failures,
        audit_failed_requests,
    };
    Ok(Repeat {
        run,
        traced,
        timings: t,
        outcome,
        profile,
        replays,
    })
}

/// The system under test: the standard `era_2020` Internet and the
/// standard scale (900 surveyed prefixes, 8 sources, 250-trace atlases),
/// both at the repository's default seed 1, so every workload seed sets
/// up the same system. `n_revtrs` is lifted so that
/// `EvalContext::workload()` yields every candidate pair of its 8 rounds.
fn system_context() -> EvalContext {
    let scale = EvalScale {
        n_revtrs: usize::MAX,
        ..EvalScale::standard()
    };
    EvalContext::new(SimConfig::era_2020(), scale)
}

/// The campaign of a workload seed: a seed-pure sample of
/// `EvalScale::standard().n_revtrs` pairs from every candidate pair of
/// `EvalContext::workload()`, kept in candidate order.
fn campaign_pairs(ctx: &EvalContext, seed: u64) -> Vec<(Addr, Addr)> {
    let candidates = ctx.workload();
    let n = EvalScale::standard().n_revtrs.min(candidates.len());
    let mut idx: Vec<usize> = (0..candidates.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    idx.truncate(n);
    idx.sort_unstable();
    idx.into_iter().map(|i| candidates[i]).collect()
}

/// The seed-pure arrival stream of a service pattern, mapped onto the
/// topology the way `revtr-cli loadtest` maps it: one responsive host per
/// sampled prefix as the destination rank space, users spread over the
/// sources, and arrivals whose destination is their source dropped.
fn service_requests(ctx: &EvalContext, pattern: Pattern, seed: u64) -> Vec<TimedRequest> {
    let profiles = loadtest::tenant_mix(pattern, SERVICE_HOURS);
    let sources = ctx.sources();
    let pool: Vec<Addr> = ctx
        .sampled_prefixes()
        .into_iter()
        .filter_map(|p| ctx.responsive_dest_in(p))
        .collect();
    assert!(!pool.is_empty(), "no responsive destinations");
    generate(&profiles, pool.len(), SERVICE_HOURS, seed)
        .into_iter()
        .filter_map(|a| {
            let dst = pool[a.dst_rank % pool.len()];
            let src = sources[(a.user as usize) % sources.len()];
            (dst != src).then_some(TimedRequest {
                vtime_ms: a.vtime_ms,
                tenant: a.tenant,
                class: a.class.index(),
                dst,
                src,
            })
        })
        .collect()
}

/// FNV-1a over every request's outcome: status and hops, or shed reason.
fn fingerprint(served: &Served) -> u64 {
    let mut h = Fnv::new();
    let mut line = String::new();
    for (i, (r, shed)) in served.results.iter().zip(&served.shed).enumerate() {
        line.clear();
        match (r, shed) {
            (Some(r), _) => {
                let _ = write!(line, "{i}|{:?}|", r.status);
                for hop in &r.hops {
                    let _ = write!(line, "{:?}/{:?};", hop.addr, hop.method);
                }
            }
            (None, Some(reason)) => {
                let _ = write!(line, "{i}|shed:{reason}");
            }
            (None, None) => {
                let _ = write!(line, "{i}|none");
            }
        }
        h.write(line.as_bytes());
    }
    h.finish()
}

/// Requests finished per second of the serve call at the reference
/// host's speed, median over `repeats`. Every serve of one seed does
/// bit-identical work from the same cold state.
pub fn serve_rate(repeats: &[Repeat]) -> f64 {
    let serve: Vec<f64> = repeats
        .iter()
        .map(|r| r.timings.serve_scaled(r.timings.serve_s))
        .collect();
    repeats[0].outcome.served as f64 / median(&serve)
}

impl Outcome {
    /// Requests counted as failed operations in the result line: an
    /// engine-served request with at least one failing audited hop.
    /// (A repeat that ends in an engine error counts every request it
    /// offered.) Shed requests are a correct admission decision and are
    /// reported in the failed share of the printed report, not here.
    pub fn failed_ops(&self) -> u64 {
        self.audit_failed_requests
    }

    /// Option probes (RR, spoofed RR, TS, spoofed TS) per offered request.
    pub fn probes_per_revtr(&self) -> f64 {
        ratio(self.probes.option_probes(), self.offered)
    }

    pub fn coverage(&self) -> f64 {
        ratio(self.complete, self.offered)
    }

    pub fn accuracy(&self) -> f64 {
        ratio(self.sound, self.compared)
    }
}
