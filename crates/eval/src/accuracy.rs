//! Fig. 5a (accuracy), Fig. 5b (coverage), and Appx. D.1 (timestamp
//! utility): reverse traceroutes compared against direct traceroutes from
//! the destination.
//!
//! As in §5.2.2, the direct traceroute is approximate ground truth; hops
//! are matched at the router granularity with measured alias evidence
//! (MIDAR-lite / SNMP / point-to-point /30s) and at the AS granularity via
//! registry IP-to-AS mapping. The "router optimistic" line counts
//! unresolvable direct hops as matches; "forward record route" calibrates
//! how hard RR-vs-traceroute alignment is even for known-correct paths.

use crate::context::EvalContext;
use crate::render::{Figure, Table};
use crate::stats::{fraction, Distribution};
use revtr::{extract_reverse_hops, EngineConfig, RevtrResult};
use revtr_aliasing::{AliasResolver, Ip2As};
use revtr_netsim::{Addr, AsId};
use revtr_probing::TaskCtx;
use revtr_vpselect::IngressDb;
use std::sync::Arc;

/// Fraction-of-hops-seen samples for one technique, plus AS-path match
/// classification.
#[derive(Clone, Debug, Default)]
pub struct TechniqueAccuracy {
    /// Per-pair fraction of direct-traceroute hops also seen, router level.
    pub router: Vec<f64>,
    /// Router level, counting unresolvable hops as matches.
    pub router_optimistic: Vec<f64>,
    /// AS level.
    pub as_level: Vec<f64>,
    /// Pairs whose AS path matches the direct traceroute's exactly.
    pub as_exact: usize,
    /// Pairs matching except for missing hops (a strict subsequence).
    pub as_missing_only: usize,
    /// Pairs with a genuine AS mismatch.
    pub as_mismatch: usize,
    /// Pairs compared.
    pub compared: usize,
}

/// The accuracy/coverage report.
#[derive(Clone, Debug)]
pub struct AccuracyReport {
    /// revtr 2.0 accuracy.
    pub v2: TechniqueAccuracy,
    /// revtr 1.0 accuracy.
    pub v1: TechniqueAccuracy,
    /// Forward-RR calibration samples (router / AS level).
    pub fwd_rr_router: Vec<f64>,
    /// Forward-RR AS-level samples.
    pub fwd_rr_as: Vec<f64>,
    /// Coverage rows: (label, completed, attempted).
    pub coverage: Vec<(String, usize, usize)>,
}

fn as_path_of(ip2as: &Ip2As, hops: impl IntoIterator<Item = Addr>) -> Vec<AsId> {
    ip2as.as_path(hops)
}

/// Is `sub` a subsequence of `full`?
fn is_subsequence(sub: &[AsId], full: &[AsId]) -> bool {
    let mut it = full.iter();
    sub.iter().all(|a| it.any(|b| b == a))
}

fn score_pair(
    resolver: &AliasResolver<'_>,
    ip2as: &Ip2As,
    direct_hops: &[Addr],
    revtr_hops: &[Addr],
    acc: &mut TechniqueAccuracy,
) {
    acc.compared += 1;
    // Router-level: fraction of direct hops matched by any reverse hop.
    let mut matched = 0usize;
    let mut optimistic = 0usize;
    for &d in direct_hops {
        let hit = revtr_hops.iter().any(|&r| resolver.hop_match(d, r));
        if hit {
            matched += 1;
            optimistic += 1;
        } else if !resolver.resolvable(d) {
            optimistic += 1; // cannot rule the hop out: optimistic match
        }
    }
    acc.router.push(fraction(matched, direct_hops.len()));
    acc.router_optimistic
        .push(fraction(optimistic, direct_hops.len()));

    // AS-level.
    let direct_as = as_path_of(ip2as, direct_hops.iter().copied());
    let rev_as = as_path_of(ip2as, revtr_hops.iter().copied());
    let seen = direct_as.iter().filter(|a| rev_as.contains(a)).count();
    acc.as_level.push(fraction(seen, direct_as.len()));
    if rev_as == direct_as {
        acc.as_exact += 1;
    } else if is_subsequence(&rev_as, &direct_as) {
        acc.as_missing_only += 1;
    } else {
        acc.as_mismatch += 1;
    }
}

/// Run the §5.2 comparison campaign.
pub fn run(
    ctx: &EvalContext,
    ingress: &Arc<IngressDb>,
    workload: &[(Addr, Addr)],
) -> AccuracyReport {
    let resolver = AliasResolver::new(&ctx.sim);
    let ip2as = Ip2As::new(&ctx.sim);

    let prober_v2 = ctx.prober();
    let sys2 = ctx.build_system(prober_v2.clone(), EngineConfig::revtr2(), ingress.clone());
    let prober_v1 = ctx.prober();
    let sys1 = ctx.build_system(prober_v1.clone(), EngineConfig::revtr1(), ingress.clone());
    let prober_ts = ctx.prober();
    let sys2_ts = ctx.build_system(
        prober_ts.clone(),
        EngineConfig::revtr2_with_ts(),
        ingress.clone(),
    );
    let prober_tso = ctx.prober();
    let sys2_ts_oracle = ctx.build_system(
        prober_tso.clone(),
        EngineConfig::revtr2_with_ts(),
        ingress.clone(),
    );

    // Feed the oracle-adjacency variant perfect adjacency data (Appx. D.1's
    // upper bound for the TS technique).
    {
        let oracle = ctx.sim.oracle();
        let mut map = std::collections::HashMap::new();
        for l in &ctx.sim.topo().links {
            for addr in [l.addr_a, l.addr_b] {
                map.insert(addr, oracle.router_adjacencies(addr));
            }
        }
        sys2_ts_oracle.set_extra_adjacencies(map);
    }

    let mut v2 = TechniqueAccuracy::default();
    let mut v1 = TechniqueAccuracy::default();
    let mut fwd_rr_router = Vec::new();
    let mut fwd_rr_as = Vec::new();
    let (mut done2, mut done1, mut done_ts, mut done_tso) = (0usize, 0, 0, 0);
    let mut attempted = 0usize;

    let probe = ctx.prober(); // direct traceroutes & forward RR calibration
    let mut task = TaskCtx::default();

    for &(dst, src) in workload {
        attempted += 1;
        // Direct traceroute dst → src: the approximate ground truth.
        let direct = probe.traceroute_fresh(&mut task, dst, src);
        let direct_hops: Vec<Addr> = match &direct {
            Some(t) if t.reached => t.responsive_hops().filter(|&h| h != dst).collect(),
            _ => Vec::new(),
        };

        let r2: RevtrResult = sys2.measure(dst, src);
        if r2.complete() {
            done2 += 1;
        }
        let r1 = sys1.measure(dst, src);
        if r1.complete() {
            done1 += 1;
        }
        if sys2_ts.measure(dst, src).complete() {
            done_ts += 1;
        }
        if sys2_ts_oracle.measure(dst, src).complete() {
            done_tso += 1;
        }

        if direct_hops.is_empty() {
            continue;
        }
        if r2.complete() {
            let hops: Vec<Addr> = r2.addrs().filter(|&h| h != dst).collect();
            score_pair(&resolver, &ip2as, &direct_hops, &hops, &mut v2);
        }
        if r1.complete() {
            let hops: Vec<Addr> = r1.addrs().filter(|&h| h != dst).collect();
            score_pair(&resolver, &ip2as, &direct_hops, &hops, &mut v1);
        }

        // Forward RR calibration: one packet src → dst records the true
        // forward path; compare with a traceroute in the same direction.
        if let (Some(rr), Some(fwd_tr)) = (
            probe.rr_ping(&mut task, src, dst),
            probe.traceroute_fresh(&mut task, src, dst),
        ) {
            if fwd_tr.reached && extract_reverse_hops(&rr.slots, dst).is_some() {
                let fwd_slots: Vec<Addr> =
                    rr.slots.iter().copied().take_while(|&s| s != dst).collect();
                let tr_hops: Vec<Addr> = fwd_tr.responsive_hops().filter(|&h| h != dst).collect();
                if !tr_hops.is_empty() {
                    let m = tr_hops
                        .iter()
                        .filter(|&&h| fwd_slots.iter().any(|&s| resolver.hop_match(h, s)))
                        .count();
                    fwd_rr_router.push(fraction(m, tr_hops.len()));
                    let tr_as = as_path_of(&ip2as, tr_hops.iter().copied());
                    let rr_as = as_path_of(&ip2as, fwd_slots.iter().copied());
                    let ma = tr_as.iter().filter(|a| rr_as.contains(a)).count();
                    fwd_rr_as.push(fraction(ma, tr_as.len()));
                }
            }
        }
    }

    AccuracyReport {
        v2,
        v1,
        fwd_rr_router,
        fwd_rr_as,
        coverage: vec![
            ("revtr 1.0".into(), done1, attempted),
            ("revtr 2.0".into(), done2, attempted),
            ("revtr 2.0 + TS".into(), done_ts, attempted),
            (
                "revtr 2.0 + TS + ground truth adj.".into(),
                done_tso,
                attempted,
            ),
        ],
    }
}

impl AccuracyReport {
    /// Render the Fig. 5a CCDF.
    pub fn fig5a(&self) -> Figure {
        let mut f = Figure::new(
            "Figure 5a: fraction of direct-traceroute hops also seen (CCDF)",
            "fraction of (dst, src) traceroute hops also seen",
            "CCDF of (src, dst) pairs",
        );
        let xs: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let add = |f: &mut Figure, label: &str, samples: &[f64]| {
            f.series(label, Distribution::new(samples.to_vec()).ccdf_series(&xs));
        };
        add(&mut f, "REVTR 2.0 AS level", &self.v2.as_level);
        add(&mut f, "REVTR 1.0 AS level", &self.v1.as_level);
        add(&mut f, "Forward Record Route AS level", &self.fwd_rr_as);
        add(&mut f, "REVTR 2.0 router level", &self.v2.router);
        add(
            &mut f,
            "REVTR 2.0 router level optimistic",
            &self.v2.router_optimistic,
        );
        add(&mut f, "Forward Record Route router", &self.fwd_rr_router);
        f
    }

    /// Render the Fig. 5b coverage table.
    pub fn fig5b(&self) -> Table {
        let mut t = Table::new(
            "Figure 5b: coverage",
            &["Technique", "Coverage %", "# paths", "attempted"],
        );
        for (label, done, attempted) in &self.coverage {
            t.row(&[
                label.clone(),
                format!("{:.1}%", 100.0 * fraction(*done, *attempted)),
                done.to_string(),
                attempted.to_string(),
            ]);
        }
        t
    }

    /// Render the AS-path match summary (§5.2.2's 92.3% / 6.1% / 1.5%).
    pub fn as_match_table(&self) -> Table {
        let mut t = Table::new(
            "AS-path match vs direct traceroute (§5.2.2)",
            &[
                "System",
                "exact",
                "missing-hop only",
                "mismatch",
                "compared",
            ],
        );
        for (name, a) in [("revtr 2.0", &self.v2), ("revtr 1.0", &self.v1)] {
            t.row(&[
                name.to_string(),
                format!("{:.1}%", 100.0 * fraction(a.as_exact, a.compared)),
                format!("{:.1}%", 100.0 * fraction(a.as_missing_only, a.compared)),
                format!("{:.1}%", 100.0 * fraction(a.as_mismatch, a.compared)),
                a.compared.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_vpselect::Heuristics;

    #[test]
    fn accuracy_shapes_hold_on_smoke_scale() {
        let ctx = EvalContext::smoke();
        let prober = ctx.prober();
        let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
        let workload = ctx.workload();
        let report = run(&ctx, &ingress, &workload);

        assert!(report.v2.compared > 0, "no pairs compared");
        // AS-level accuracy beats router-level (aliasing is hard).
        let v2_as = Distribution::new(report.v2.as_level.clone()).mean();
        let v2_router = Distribution::new(report.v2.router.clone()).mean();
        assert!(
            v2_as >= v2_router,
            "AS accuracy ({v2_as}) below router accuracy ({v2_router})"
        );
        // Optimistic ≥ plain router accuracy, pointwise.
        for (o, r) in report.v2.router_optimistic.iter().zip(&report.v2.router) {
            assert!(o >= r);
        }
        // revtr 2.0 mismatches are rarer than revtr 1.0's (the headline).
        let m2 = fraction(report.v2.as_mismatch, report.v2.compared);
        let m1 = fraction(report.v1.as_mismatch, report.v1.compared);
        assert!(
            m2 <= m1 + 1e-9,
            "2.0 mismatch rate {m2} worse than 1.0 {m1}"
        );
        // Coverage ordering: 1.0 ≥ {2.0 variants}, and the TS additions are
        // (near-)monotone — TS occasionally reroutes a path onto a branch
        // that later aborts, so allow one path of slack on the small smoke
        // workload.
        let cov: Vec<usize> = report.coverage.iter().map(|c| c.1).collect();
        assert!(cov[0] >= cov[1] && cov[0] >= cov[2] && cov[0] >= cov[3]);
        assert!(
            cov[2] + 1 >= cov[1],
            "TS lost coverage: {} vs {}",
            cov[2],
            cov[1]
        );
        assert!(
            cov[3] + 1 >= cov[2],
            "oracle adjacencies lost coverage: {} vs {}",
            cov[3],
            cov[2]
        );
        // Renders.
        assert!(report.fig5a().render().contains("REVTR 2.0 AS level"));
        assert_eq!(report.fig5b().len(), 4);
        assert_eq!(report.as_match_table().len(), 2);
    }
}
