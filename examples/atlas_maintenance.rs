//! Atlas maintenance (Q1, Appx. D.2): build a source's traceroute atlas,
//! watch route churn make intersections stale over a virtual day, and run
//! the daily refresh that keeps useful traces while replacing the rest.
//!
//! Run with: `cargo run --release --example atlas_maintenance`

use revtr::{EngineConfig, RevtrSystem};
use revtr_atlas::select_atlas_probes;
use revtr_netsim::{Addr, Sim, SimConfig};
use revtr_probing::{Prober, TaskCtx};
use revtr_vpselect::{Heuristics, IngressDb};
use std::sync::Arc;

fn main() {
    // Crank churn so a single demo day shows movement.
    let mut cfg = SimConfig::tiny();
    cfg.behavior.churn_per_hour = 0.05;
    let sim = Sim::build(cfg, 2024);

    let prober = Prober::new(&sim);
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(&sim, 150, 11);
    let mut ecfg = EngineConfig::revtr2();
    ecfg.atlas_size = 60;
    let system = RevtrSystem::new(prober.clone(), ecfg, vps.clone(), ingress, pool);

    let src = vps[0];
    system.register_source(src);
    let atlas0 = system.atlas(src);
    println!(
        "bootstrapped atlas for {src}: {} traces, {} indexed addresses",
        atlas0.traces.len(),
        atlas0.index_size()
    );

    // A day of measurements under churn.
    let dests: Vec<Addr> = sim
        .topo()
        .prefixes
        .iter()
        .filter_map(|pe| {
            sim.host_addrs(pe.id)
                .find(|&a| sim.behavior().host_rr_responsive(a))
        })
        .collect();
    let mut intersected = 0usize;
    let mut stale = 0usize;
    let mut ctx = TaskCtx::default();
    for (i, &d) in dests.iter().enumerate() {
        sim.advance_hours(24.0 / dests.len() as f64);
        let r = system.measure(d, src);
        let (Some(t), Some(h)) = (r.stats.intersected_trace, r.stats.intersected_hop) else {
            continue;
        };
        intersected += 1;
        // Verify the intersected trace against a fresh re-measurement.
        let atlas = system.atlas(src);
        let trace = &atlas.traces[t];
        if let (Some(hop_addr), Some(fresh)) = (
            trace.hops[h],
            prober.traceroute_fresh(&mut ctx, trace.vp, src),
        ) {
            if !fresh.responsive_hops().any(|x| x == hop_addr) {
                stale += 1;
                println!(
                    "  [{i:3}] stale intersection: hop {hop_addr} no longer on the path from {}",
                    trace.vp
                );
            }
        }
    }
    println!(
        "\nday summary: {intersected} measurements intersected the atlas, {stale} used a stale trace"
    );

    // The daily refresh: intersected traces keep their probes, the rest are
    // replaced with fresh random ones.
    system.refresh_atlas(src);
    let atlas1 = system.atlas(src);
    let kept: usize = atlas1
        .traces
        .iter()
        .filter(|t| atlas0.traces.iter().any(|o| o.vp == t.vp))
        .count();
    println!(
        "after refresh: {} traces ({kept} probes retained from yesterday), {} indexed addresses",
        atlas1.traces.len(),
        atlas1.index_size()
    );
}
