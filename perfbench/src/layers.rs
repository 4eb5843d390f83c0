//! The per-layer view of a traced run: ledger high-water marks and the
//! stage profile read from the telemetry handle, the layer replays, and
//! the assembly of every per-layer metric.

use crate::repeat::{serve_rate, Repeat};
use crate::trace::{median, ratio, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revtr::RevtrSystem;
use revtr_netsim::sim::PktMeta;
use revtr_netsim::{bgp, Addr, Sim};
use revtr_telemetry::Telemetry;
use std::hint::black_box;
use std::time::Instant;

/// Engine stages whose spans the profile reports, as named by the engine.
const STAGES: [&str; 5] = [
    "destination_probe",
    "rr_direct",
    "rr_spoofed",
    "atlas_intersection",
    "assume_symmetry",
];

/// Byte ledgers whose high-water marks the trace reports.
const LEDGERS: [&str; 7] = [
    "netsim.route_cache",
    "netsim.fib",
    "atlas.index",
    "probing.cache.rr",
    "probing.stopset.forward",
    "engine.control_blocks",
    "telemetry.journal",
];

/// What a profiling telemetry handle recorded over one repeat.
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    /// `(ledger, high-water bytes)` for [`LEDGERS`].
    pub ledgers: Vec<(&'static str, u64)>,
    /// Sum of every ledger's high-water mark.
    pub mem_total: u64,
    /// `(stage, spans, virtual µs)` for [`STAGES`], summed over every
    /// stack the stage closes.
    pub stages: Vec<(&'static str, u64, u64)>,
}

impl Profile {
    pub fn read(tele: &Telemetry) -> Profile {
        let resources = tele.resources();
        let stacks = tele.profile_stacks();
        Profile {
            ledgers: LEDGERS.map(|l| (l, resources.hiwater(l))).to_vec(),
            mem_total: resources.ledgers.iter().map(|l| l.hiwater).sum(),
            stages: STAGES
                .map(|stage| {
                    stacks
                        .iter()
                        .filter(|s| s.path.rsplit(';').next() == Some(stage))
                        .fold((stage, 0, 0), |(st, n, us), s| {
                            (st, n + s.spans, us + s.virtual_us)
                        })
                })
                .to_vec(),
        }
    }

    fn ledger(&self, name: &str) -> u64 {
        self.ledgers
            .iter()
            .find(|(l, _)| *l == name)
            .map_or(0, |(_, b)| *b)
    }
}

/// Nanoseconds per call of each replayed layer primitive.
#[derive(Clone, Copy, Debug)]
pub struct Replays {
    pub walk_ns: f64,
    pub route_fill_ns: f64,
    pub rr_ping_ns: f64,
    pub spoofed_rr_ns: f64,
    pub atlas_lookup_ns: f64,
}

/// Pairs sampled from the workload for the replays.
const SAMPLE: usize = 64;
/// Timed passes over the sample per replay (the median pass is reported).
const PASSES: usize = 9;

/// Median ns per call over [`PASSES`] passes of `calls` calls each.
fn per_call(calls: usize, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Time `Sim::walk`, `bgp::routes_to`, `Sim::rr_ping`, `Sim::rr_ping_from`
/// and `SourceAtlas::lookup` on inputs sampled deterministically from the
/// workload that just ran, on the warm system it left behind.
pub fn replay(
    sim: &Sim,
    sys: &RevtrSystem<'_>,
    vps: &[Addr],
    pairs: &[(Addr, Addr)],
    seed: u64,
    tr: &mut Tracer,
) -> Replays {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_706c_6179);
    let sample: Vec<(Addr, Addr)> = (0..SAMPLE)
        .map(|_| pairs[rng.gen_range(0..pairs.len())])
        .collect();

    let span = tr.enter("replay.netsim.walk");
    let starts: Vec<_> = sample
        .iter()
        .map(|&(dst, src)| {
            let attach = sim.host_attach(src).expect("sources are VP hosts");
            (attach, dst, PktMeta::plain(src, 0))
        })
        .collect();
    let walk_ns = per_call(starts.len(), || {
        for (attach, dst, meta) in &starts {
            black_box(sim.walk(*attach, *dst, meta));
        }
    });
    tr.exit(span);

    let span = tr.enter("replay.netsim.route_fill");
    let oracle = sim.oracle();
    let targets: Vec<_> = sample
        .iter()
        .take(SAMPLE / 4)
        .filter_map(|&(dst, _)| oracle.true_as_of(dst))
        .map(|asn| (asn, rng.gen::<u64>()))
        .collect();
    let route_fill_ns = per_call(targets.len(), || {
        for &(asn, salt) in &targets {
            black_box(bgp::routes_to(sim.topo(), asn, salt));
        }
    });
    tr.exit(span);

    let span = tr.enter("replay.probing.rr_ping");
    let mut nonce = rng.gen::<u64>();
    let rr_ping_ns = per_call(sample.len(), || {
        for &(dst, src) in &sample {
            nonce = nonce.wrapping_add(1);
            black_box(sim.rr_ping(src, dst, nonce));
        }
    });
    tr.exit(span);

    let span = tr.enter("replay.probing.spoofed_rr");
    let spoofed: Vec<(Addr, Addr, Addr)> = sample
        .iter()
        .map(|&(dst, src)| {
            let mut sender = vps[rng.gen_range(0..vps.len())];
            while sender == src {
                sender = vps[rng.gen_range(0..vps.len())];
            }
            (sender, src, dst)
        })
        .collect();
    let spoofed_rr_ns = per_call(spoofed.len(), || {
        for &(sender, src, dst) in &spoofed {
            nonce = nonce.wrapping_add(1);
            black_box(sim.rr_ping_from(sender, src, dst, nonce));
        }
    });
    tr.exit(span);

    // Atlas lookups: indexed addresses (hits) and the sampled
    // destinations (mostly misses), as the engine's intersection test
    // sees both.
    let span = tr.enter("replay.atlas.lookup");
    let (_, src) = sample[0];
    let atlas = sys.atlas(src);
    let mut indexed: Vec<Addr> = atlas.indexed_addrs().map(|(a, _)| a).collect();
    indexed.sort_unstable();
    let mut probes: Vec<Addr> = (0..SAMPLE * 4)
        .map(|_| indexed[rng.gen_range(0..indexed.len())])
        .collect();
    probes.extend(sample.iter().map(|&(dst, _)| dst));
    let atlas_lookup_ns = per_call(probes.len() * 64, || {
        for _ in 0..64 {
            for &a in &probes {
                black_box(atlas.lookup(black_box(a)));
            }
        }
    });
    tr.exit(span);

    Replays {
        walk_ns,
        route_fill_ns,
        rr_ping_ns,
        spoofed_rr_ns,
        atlas_lookup_ns,
    }
}

/// Every per-layer metric as `(name, value, unit)`, from the traced
/// repeats (medians of seconds at the reference host's speed; counts are
/// identical across repeats) and the untraced ones (the denominator of
/// the tracing overhead).
pub fn per_layer(untraced: &[Repeat], traced: &[Repeat]) -> Vec<(String, f64, &'static str)> {
    let first = &traced[0];
    let o = &first.outcome;
    let p = first
        .profile
        .as_ref()
        .expect("traced repeats carry a profile");
    let r = traced
        .iter()
        .find_map(|t| t.replays)
        .expect("the first traced repeat replays");
    let med = |rs: &[Repeat], f: fn(&Repeat) -> f64| median(&rs.iter().map(f).collect::<Vec<_>>());
    let serve_s = med(traced, |t| t.timings.serve_scaled(t.timings.serve_s));
    let survey_s = med(traced, |t| t.timings.setup_scaled(t.timings.survey_s));
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

    put(
        "netsim.build_s",
        med(traced, |t| t.timings.setup_scaled(t.timings.sim_s)),
        "s",
    );
    put("netsim.route_computes", o.route_computes as f64, "count");
    put("netsim.walk_ns", r.walk_ns, "ns");
    put("netsim.route_fill_ns", r.route_fill_ns, "ns");
    put(
        "mem.netsim.route_cache.hiwater",
        p.ledger("netsim.route_cache") as f64,
        "bytes",
    );
    put(
        "mem.netsim.fib.hiwater",
        p.ledger("netsim.fib") as f64,
        "bytes",
    );

    put("vpselect.survey_s", survey_s, "s");
    put("vpselect.survey_probes", o.survey_probes as f64, "count");
    put(
        "vpselect.ns_per_probe",
        survey_s * 1e9 / o.survey_probes.max(1) as f64,
        "ns",
    );

    put(
        "atlas.bootstrap_s",
        med(traced, |t| t.timings.setup_scaled(t.timings.atlas_s)),
        "s",
    );
    put("atlas.refreshes", o.atlas_refreshes as f64, "count");
    put("atlas.lookup_ns", r.atlas_lookup_ns, "ns");
    put(
        "mem.atlas.index.hiwater",
        p.ledger("atlas.index") as f64,
        "bytes",
    );

    let probes = &o.probes;
    for (kind, n) in [
        ("rr", probes.rr),
        ("spoof_rr", probes.spoof_rr),
        ("ping", probes.ping),
        ("atlas_rr", probes.atlas_rr),
        ("traceroute_pkts", probes.traceroute_pkts),
    ] {
        put(&format!("probing.probes.{kind}"), n as f64, "count");
    }
    put(
        "probing.cache.hit_ratio",
        ratio(o.cache_hits, o.cache_lookups),
        "ratio",
    );
    let ss = &o.stopset;
    put(
        "probing.stopset.forward_hit_ratio",
        ratio(ss.forward_hits, ss.forward_lookups()),
        "ratio",
    );
    put(
        "probing.stopset.skips",
        (ss.direct_skips + ss.spoof_skips + ss.vp_skips) as f64,
        "count",
    );
    put("probing.retries", probes.retries as f64, "count");
    put("probing.lost", probes.lost as f64, "count");
    put("probing.rr_ping_ns", r.rr_ping_ns, "ns");
    put("probing.spoofed_rr_ns", r.spoofed_rr_ns, "ns");
    put(
        "mem.probing.cache.rr.hiwater",
        p.ledger("probing.cache.rr") as f64,
        "bytes",
    );
    put(
        "mem.probing.stopset.forward.hiwater",
        p.ledger("probing.stopset.forward") as f64,
        "bytes",
    );

    put("core.serve_s", serve_s, "s");
    put("core.events", o.events as f64, "count");
    put("core.events_per_revtr", ratio(o.events, o.offered), "count");
    put(
        "core.ns_per_event",
        serve_s * 1e9 / o.events.max(1) as f64,
        "ns",
    );
    for &(stage, spans, virtual_us) in &p.stages {
        put(&format!("core.stage.{stage}.spans"), spans as f64, "count");
        put(
            &format!("core.stage.{stage}.virtual_s"),
            virtual_us as f64 / 1e6,
            "s",
        );
    }
    put(
        "mem.engine.control_blocks.hiwater",
        p.ledger("engine.control_blocks") as f64,
        "bytes",
    );

    put("service.admitted", o.admitted as f64, "count");
    put("service.shed", o.shed as f64, "count");
    put("service.waves", o.waves as f64, "count");
    put(
        "service.degrade_transitions",
        o.degrade_transitions as f64,
        "count",
    );
    put(
        "service.queue_depth_peak",
        o.queue_depth_peak as f64,
        "count",
    );

    put("loadgen.arrivals", o.offered as f64, "count");

    put(
        "telemetry.overhead_ratio",
        // Traced over untraced serve time of the same work.
        serve_rate(untraced) / serve_rate(traced),
        "ratio",
    );
    put(
        "mem.telemetry.journal.hiwater",
        p.ledger("telemetry.journal") as f64,
        "bytes",
    );
    put("mem.total.hiwater", p.mem_total as f64, "bytes");

    put("audit.unsound_hops", o.audit_unsound as f64, "count");
    put("audit.policy_violations", o.audit_policy as f64, "count");
    put(
        "audit_s",
        med(traced, |t| t.timings.serve_scaled(t.timings.audit_s)),
        "s",
    );
    m
}
