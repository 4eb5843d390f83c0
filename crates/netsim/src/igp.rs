//! Intradomain routing: per-AS all-pairs shortest paths over intra links.
//!
//! Every AS runs a hop-count IGP over its internal topology (a ring plus
//! chords, from the generator). Tables are small (ASes have at most a few
//! dozen routers) and precomputed once at `Sim::build` time.

use crate::ids::{AsId, LinkId, RouterId};
use crate::topology::{LinkKind, Topology};

/// Sentinel for "unreachable" (never happens in generated topologies, whose
/// intra graphs are connected, but kept for robustness).
pub const UNREACHABLE: u16 = u16::MAX;

/// IGP state for one AS.
#[derive(Clone, Debug)]
pub struct AsIgp {
    /// Router ids of this AS, in topology order.
    pub routers: Vec<RouterId>,
    /// Flattened `n × n` hop-count matrix, `dist[i*n + j]`.
    dist: Vec<u16>,
}

impl AsIgp {
    #[inline]
    fn dist_idx(&self, i: usize, j: usize) -> u16 {
        self.dist[i * self.routers.len() + j]
    }
}

/// IGP tables for every AS, indexed by [`AsId`].
///
/// Routers are located by one dense `router id → local index` array over
/// the whole topology: a router's index is its position in its own AS's
/// `routers`, so membership of a router in a given AS is checked by
/// reading that position back.
#[derive(Clone, Debug)]
pub struct Igp {
    tables: Vec<AsIgp>,
    /// Router id → index within its own AS's table.
    local: Vec<u32>,
}

impl Igp {
    /// Compute IGP tables for the whole topology.
    pub fn build(topo: &Topology) -> Igp {
        let mut local = vec![0u32; topo.routers.len()];
        for a in &topo.ases {
            for (i, &r) in a.routers.iter().enumerate() {
                local[r.index()] = i as u32;
            }
        }
        let tables = topo
            .ases
            .iter()
            .map(|a| Self::build_as(topo, a.id, &local))
            .collect();
        Igp { tables, local }
    }

    fn build_as(topo: &Topology, asid: AsId, local: &[u32]) -> AsIgp {
        let routers = topo.asn(asid).routers.clone();
        let n = routers.len();

        // Local adjacency over intra links only.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &r) in routers.iter().enumerate() {
            for &lid in &topo.router(r).links {
                let l = topo.link(lid);
                let other = l.other(r);
                let j = local[other.index()] as usize;
                if l.kind == LinkKind::Intra(asid) && routers.get(j) == Some(&other) {
                    adj[i].push(j);
                }
            }
        }

        // BFS from every router.
        let mut dist = vec![UNREACHABLE; n * n];
        let mut queue = std::collections::VecDeque::new();
        for s in 0..n {
            dist[s * n + s] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                let du = dist[s * n + u];
                for &v in &adj[u] {
                    if dist[s * n + v] == UNREACHABLE {
                        dist[s * n + v] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        AsIgp { routers, dist }
    }

    /// IGP table of an AS.
    #[inline]
    pub fn table(&self, asid: AsId) -> &AsIgp {
        &self.tables[asid.index()]
    }

    /// Local index of `r` in `t`, if `r` belongs to that AS.
    #[inline]
    fn local_in(&self, t: &AsIgp, r: RouterId) -> Option<usize> {
        let i = *self.local.get(r.index())? as usize;
        (t.routers.get(i) == Some(&r)).then_some(i)
    }

    /// Logical byte footprint of all per-AS FIBs: router-id vectors, the
    /// dense router→index array, and the flattened hop-count matrices. A
    /// pure function of the topology (tables are precomputed at build
    /// time).
    pub fn approx_bytes(&self) -> u64 {
        let tables: usize = self
            .tables
            .iter()
            .map(|t| {
                t.routers.len() * std::mem::size_of::<RouterId>()
                    + t.dist.len() * std::mem::size_of::<u16>()
            })
            .sum();
        (tables + self.local.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Hop distance between two routers of `asid`; [`UNREACHABLE`] when
    /// either router belongs to another AS.
    #[inline]
    pub fn dist(&self, asid: AsId, a: RouterId, b: RouterId) -> u16 {
        let t = &self.tables[asid.index()];
        match (self.local_in(t, a), self.local_in(t, b)) {
            (Some(i), Some(j)) => t.dist_idx(i, j),
            _ => UNREACHABLE,
        }
    }

    /// Append to `out` every intra-AS neighbor router of `r` (with the
    /// connecting link) that lies one hop closer to `target`, i.e. the
    /// equal-cost next-hop set, in (router, link) order. Appends nothing
    /// if `r == target` or the target is unreachable.
    pub fn next_hops_into(
        &self,
        topo: &Topology,
        r: RouterId,
        target: RouterId,
        out: &mut Vec<(LinkId, RouterId)>,
    ) {
        let asid = topo.router_as(r);
        debug_assert_eq!(asid, topo.router_as(target));
        let t = self.table(asid);
        let (Some(i), Some(j)) = (self.local_in(t, r), self.local_in(t, target)) else {
            return;
        };
        let d = t.dist_idx(i, j);
        if d == 0 || d == UNREACHABLE {
            return;
        }
        let start = out.len();
        for &lid in &topo.router(r).links {
            let l = topo.link(lid);
            if l.kind != LinkKind::Intra(asid) {
                continue;
            }
            let n = l.other(r);
            if let Some(k) = self.local_in(t, n) {
                if t.dist_idx(k, j) + 1 == d {
                    out.push((lid, n));
                }
            }
        }
        out[start..].sort_unstable_by_key(|&(lid, n)| (n, lid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::gen::generate;

    #[test]
    fn igp_distances_are_symmetric_and_connected() {
        let topo = generate(&SimConfig::tiny(), 11);
        let igp = Igp::build(&topo);
        for a in &topo.ases {
            for &r1 in &a.routers {
                for &r2 in &a.routers {
                    let d = igp.dist(a.id, r1, r2);
                    assert_ne!(d, UNREACHABLE, "intra graph of {} disconnected", a.id);
                    assert_eq!(d, igp.dist(a.id, r2, r1));
                    if r1 == r2 {
                        assert_eq!(d, 0);
                    } else {
                        assert!(d >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn next_hops_reduce_distance() {
        let topo = generate(&SimConfig::tiny(), 11);
        let igp = Igp::build(&topo);
        for a in &topo.ases {
            if a.routers.len() < 2 {
                continue;
            }
            let target = a.routers[0];
            let mut hops = Vec::new();
            for &r in &a.routers[1..] {
                hops.clear();
                igp.next_hops_into(&topo, r, target, &mut hops);
                assert!(!hops.is_empty(), "no next hop from {r} to {target}");
                for &(_, n) in &hops {
                    assert_eq!(igp.dist(a.id, n, target) + 1, igp.dist(a.id, r, target));
                }
            }
        }
    }

    #[test]
    fn next_hops_empty_at_target() {
        let topo = generate(&SimConfig::tiny(), 11);
        let igp = Igp::build(&topo);
        let a = &topo.ases[0];
        let r = a.routers[0];
        let mut hops = Vec::new();
        igp.next_hops_into(&topo, r, r, &mut hops);
        assert!(hops.is_empty());
    }

    #[test]
    fn dist_is_unreachable_for_a_router_of_another_as() {
        let topo = generate(&SimConfig::tiny(), 11);
        let igp = Igp::build(&topo);
        let a = &topo.ases[0];
        let b = &topo.ases[1];
        let (ra, rb) = (a.routers[0], b.routers[0]);
        assert_eq!(igp.dist(a.id, ra, rb), UNREACHABLE);
        assert_eq!(igp.dist(a.id, rb, ra), UNREACHABLE);
        assert_eq!(igp.dist(a.id, rb, rb), UNREACHABLE);
        assert_eq!(igp.dist(b.id, rb, rb), 0);
    }

    #[test]
    fn next_hop_sets_match_golden() {
        // Every (router, target) pair of every AS on tiny seed 11, in
        // (router, link) order. Recorded from the hash-map index.
        let topo = generate(&SimConfig::tiny(), 11);
        let igp = Igp::build(&topo);
        let mut h = revtr_telemetry::Fnv::new();
        let mut pairs = 0u64;
        let mut hops = Vec::new();
        for a in &topo.ases {
            for &r in &a.routers {
                for &target in &a.routers {
                    // The buffer is appended to, never cleared by the
                    // callee: the set is what follows the old length.
                    let before = hops.len();
                    igp.next_hops_into(&topo, r, target, &mut hops);
                    let set = &hops[before..];
                    h.write_u64(set.len() as u64);
                    for &(l, n) in set {
                        h.write_u64(u64::from(l.0));
                        h.write_u64(u64::from(n.0));
                    }
                    pairs += 1;
                }
            }
        }
        assert_eq!(
            (pairs, format!("{:#018x}", h.finish())),
            (414, "0x677e1e77f07f5877".to_string()),
            "IGP next-hop sets drifted on tiny seed 11"
        );
    }
}
