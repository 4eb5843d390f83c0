//! Cross-crate integration: the full pipeline — simulator → probing →
//! ingress DB → atlas → engine → service — validated against the oracle.

use revtr_suite::aliasing::Ip2As;
use revtr_suite::atlas::select_atlas_probes;
use revtr_suite::netsim::{Addr, Sim, SimConfig};
use revtr_suite::probing::{Prober, TaskCtx};
use revtr_suite::revtr::{EngineConfig, RevtrSystem, Status};
use revtr_suite::service::{RateLimits, RevtrService};
use revtr_suite::vpselect::{Heuristics, IngressDb};
use std::sync::Arc;

fn full_stack(sim: &Sim, cfg: EngineConfig) -> RevtrSystem<'_> {
    let prober = Prober::new(sim);
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(sim, 100, 4);
    let mut cfg = cfg;
    cfg.atlas_size = 40;
    RevtrSystem::new(prober, cfg, vps, ingress, pool)
}

fn destinations(sim: &Sim, n: usize) -> Vec<Addr> {
    sim.topo()
        .prefixes
        .iter()
        .filter_map(|pe| {
            sim.host_addrs(pe.id)
                .find(|&a| sim.behavior().host_rr_responsive(a))
        })
        .take(n)
        .collect()
}

#[test]
fn complete_reverse_paths_are_sound_against_the_oracle() {
    let sim = Sim::build(SimConfig::tiny(), 71);
    let sys = full_stack(&sim, EngineConfig::revtr2());
    let oracle = sim.oracle();
    let src = sim.topo().vp_sites[0].host;
    let (mut complete, mut sound) = (0, 0);
    for dst in destinations(&sim, 25) {
        let r = sys.measure(dst, src);
        if !r.complete() {
            continue;
        }
        complete += 1;
        let truth = oracle.true_as_path(dst, src).expect("connected");
        let mut measured: Vec<_> = r.addrs().filter_map(|a| oracle.true_as_of(a)).collect();
        measured.dedup();
        if measured.iter().all(|a| truth.contains(a)) {
            sound += 1;
        }
    }
    assert!(complete >= 10, "only {complete} complete paths");
    assert!(
        sound * 10 >= complete * 9,
        "{sound}/{complete} AS-sound paths"
    );
}

#[test]
fn the_trust_policy_separates_the_two_systems() {
    let sim = Sim::build(SimConfig::tiny(), 72);
    let sys1 = full_stack(&sim, EngineConfig::revtr1());
    let sys2 = full_stack(&sim, EngineConfig::revtr2());
    let src = sim.topo().vp_sites[1].host;
    let mut v1_assumptions = 0u32;
    let mut v2_aborts = 0u32;
    for dst in destinations(&sim, 40) {
        let r1 = sys1.measure(dst, src);
        v1_assumptions += r1.stats.assumed_symmetric;
        let r2 = sys2.measure(dst, src);
        assert_eq!(r2.stats.assumed_interdomain, 0);
        if r2.status == Status::AbortedInterdomain {
            v2_aborts += 1;
            // 2.0 aborted where 1.0 would have guessed; the result still
            // reports the partial path.
            assert!(!r2.hops.is_empty());
        }
    }
    // The symmetry machinery must actually fire somewhere on this
    // workload, otherwise the comparison is vacuous.
    assert!(
        v1_assumptions > 0 || v2_aborts > 0,
        "no measurement ever needed a symmetry decision — workload too easy"
    );
}

#[test]
fn service_layer_composes_with_the_engine() {
    let sim = Sim::build(SimConfig::tiny(), 73);
    let service = RevtrService::new(full_stack(&sim, EngineConfig::revtr2()));
    let key = service.add_user("ops", RateLimits::default());
    let src = sim.topo().vp_sites[0].host;
    service.add_source(key, src).expect("bootstrap");
    let pairs: Vec<(Addr, Addr)> = destinations(&sim, 10)
        .into_iter()
        .map(|d| (d, src))
        .collect();
    let serial: Vec<_> = pairs
        .iter()
        .map(|&(d, s)| service.request(key, d, s).expect("served"))
        .collect();
    let stats = service.store().stats();
    assert_eq!(stats.total, serial.len());
    assert!(stats.complete > 0);
}

#[test]
fn parallel_campaign_equals_serial_results() {
    let sim = Sim::build(SimConfig::tiny(), 74);
    let service = RevtrService::new(full_stack(&sim, EngineConfig::revtr2()));
    let key = service.add_user("mapper", RateLimits::default());
    let src = sim.topo().vp_sites[2].host;
    service.add_source(key, src).expect("bootstrap");
    // Pre-warm the atlas and caches so serial/parallel start identical.
    let pairs: Vec<(Addr, Addr)> = destinations(&sim, 12)
        .into_iter()
        .map(|d| (d, src))
        .collect();
    let parallel = service.batch(key, &pairs, 6).expect("parallel campaign");
    let serial = service.batch(key, &pairs, 1).expect("serial campaign");
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.dst, s.dst);
        // With warm caches, the measured paths agree.
        assert_eq!(
            p.addrs().collect::<Vec<_>>(),
            s.addrs().collect::<Vec<_>>(),
            "parallel/serial divergence for {}",
            p.dst
        );
    }
}

#[test]
fn ip2as_and_oracle_agree_away_from_borders() {
    let sim = Sim::build(SimConfig::tiny(), 75);
    let ip2as = Ip2As::new(&sim);
    let oracle = sim.oracle();
    // Host addresses and loopbacks map identically in the registry and the
    // ground truth; only interdomain link interfaces may disagree.
    for pe in sim.topo().prefixes.iter().take(30) {
        let h = sim.host_addrs(pe.id).next().expect("hosts");
        assert_eq!(ip2as.map(h), oracle.true_as_of(h));
    }
    for r in sim.topo().routers.iter().take(50) {
        assert_eq!(ip2as.map(r.loopback), oracle.true_as_of(r.loopback));
    }
}

#[test]
fn churn_changes_routes_but_not_reachability() {
    // Boost the churn rate so a simulated week shows movement even on a
    // tiny topology (default churn is calibrated for the staleness study).
    let mut cfg = SimConfig::tiny();
    cfg.behavior.churn_per_hour = 0.05;
    let sim = Sim::build(cfg, 76);
    let prober = Prober::new(&sim);
    let mut ctx = TaskCtx::default();
    let src = sim.topo().vp_sites[0].host;
    let dests = destinations(&sim, 30);
    let before: Vec<_> = dests
        .iter()
        .map(|&d| prober.traceroute_fresh(&mut ctx, src, d).map(|t| t.hops))
        .collect();
    // A week of heavy churn.
    for _ in 0..24 * 7 {
        sim.advance_hours(1.0);
    }
    let mut changed = 0;
    for (i, &d) in dests.iter().enumerate() {
        let after = prober.traceroute_fresh(&mut ctx, src, d).map(|t| t.hops);
        assert_eq!(after.is_some(), before[i].is_some(), "reachability flapped");
        if after != before[i] {
            changed += 1;
        }
    }
    assert!(changed > 0, "a week of churn changed no path");
}
