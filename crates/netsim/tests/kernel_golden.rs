//! Golden fingerprints of the forwarding kernel: valley-free route fills,
//! router-level walks and Record Route probes.
//!
//! Every value below was recorded from the reference implementation (the
//! hash-map IGP index, the cached border lists and the heap-ordered BGP
//! fill). Any rewrite of `igp.rs`, `bgp.rs` or `Sim::walk` must reproduce
//! them bit for bit; a mismatch means forwarding changed, not that the
//! golden is stale.

use revtr_netsim::bgp::{routes_to, AsRoutes};
use revtr_netsim::ids::AsId;
use revtr_netsim::sim::{PktMeta, Walk};
use revtr_netsim::{Addr, Sim, SimConfig};
use revtr_telemetry::Fnv;

const SALTS: [u64; 3] = [1, 77, 12345];

fn absorb_routes(h: &mut Fnv, r: &AsRoutes) {
    h.write_u64(u64::from(r.dst.0));
    for x in 0..r.next.len() {
        h.write_u64(r.next[x].map_or(u64::MAX, |a| u64::from(a.0)));
        h.write_u64(u64::from(r.dist[x]));
        h.write_u64(r.class[x] as u64);
    }
}

fn absorb_walk(h: &mut Fnv, w: Option<Walk>) {
    let Some(w) = w else {
        h.write_u64(u64::MAX);
        return;
    };
    h.write_u64(w.hops.len() as u64);
    for hop in &w.hops {
        h.write_u64(u64::from(hop.router.0));
        h.write_u64(hop.in_link.map_or(u64::MAX, |l| u64::from(l.0)));
        h.write_u64(hop.out_link.map_or(u64::MAX, |l| u64::from(l.0)));
    }
    h.write_u64(w.latency_ms.to_bits());
}

/// Fingerprint of `routes_to` for every destination AS under one salt.
fn routes_fingerprint(sim: &Sim, dsts: &[AsId], salt: u64) -> u64 {
    let mut h = Fnv::new();
    for &d in dsts {
        absorb_routes(&mut h, &routes_to(sim.topo(), d, salt));
    }
    h.finish()
}

/// A fixed probe population: every VP host as a source; as destinations,
/// one host per sampled prefix plus router loopbacks and both interface
/// addresses of sampled links (customer-side /30 addresses exercise the
/// `via` delivery leg).
fn sample(sim: &Sim, prefix_step: usize, router_step: usize, link_step: usize) -> Vec<Addr> {
    let topo = sim.topo();
    let mut dsts: Vec<Addr> = topo
        .prefixes
        .iter()
        .step_by(prefix_step)
        .filter_map(|p| sim.host_addrs(p.id).nth(p.id.index() % 7))
        .collect();
    dsts.extend(topo.routers.iter().step_by(router_step).map(|r| r.loopback));
    for l in topo.links.iter().step_by(link_step) {
        dsts.push(l.addr_a);
        dsts.push(l.addr_b);
    }
    dsts
}

/// (plain walks, option walks, direct RR, spoofed RR) fingerprints.
fn probe_fingerprints(sim: &Sim, dsts: &[Addr]) -> [u64; 4] {
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let mut plain = Fnv::new();
    let mut options = Fnv::new();
    let mut rr = Fnv::new();
    let mut spoofed = Fnv::new();
    for (i, &src) in vps.iter().enumerate() {
        let attach = sim.host_attach(src).expect("vp hosts attach");
        for (j, &dst) in dsts.iter().enumerate() {
            let flow = (i * 31 + j) as u16;
            absorb_walk(
                &mut plain,
                sim.walk(attach, dst, &PktMeta::plain(src, flow)),
            );
            // Several nonces per pair, so load-balancing routers pick
            // different branches.
            for k in 0..3u64 {
                let nonce = ((i as u64) << 40) ^ ((j as u64) << 8) ^ k;
                absorb_walk(
                    &mut options,
                    sim.walk(attach, dst, &PktMeta::options(src, nonce)),
                );
            }
            let nonce = ((j as u64) << 20) ^ i as u64;
            absorb_rr(&mut rr, sim.rr_ping_from(src, src, dst, nonce));
            let claimed = vps[(i + 1 + j) % vps.len()];
            absorb_rr(&mut spoofed, sim.rr_ping_from(src, claimed, dst, nonce));
        }
    }
    [
        plain.finish(),
        options.finish(),
        rr.finish(),
        spoofed.finish(),
    ]
}

fn absorb_rr(h: &mut Fnv, r: Option<revtr_netsim::engine::RrReply>) {
    let Some(r) = r else {
        h.write_u64(u64::MAX);
        return;
    };
    h.write_u64(u64::from(r.from.0));
    h.write_u64(r.slots.len() as u64);
    for s in &r.slots {
        h.write_u64(u64::from(s.0));
    }
    h.write_u64(r.rtt_ms.to_bits());
}

fn hex(vals: &[u64]) -> Vec<String> {
    vals.iter().map(|v| format!("{v:#018x}")).collect()
}

#[test]
fn tiny_routes_to_matches_golden_for_every_destination() {
    let sim = Sim::build(SimConfig::tiny(), 1);
    let dsts: Vec<AsId> = sim.topo().ases.iter().map(|a| a.id).collect();
    let got: Vec<u64> = SALTS
        .iter()
        .map(|&s| routes_fingerprint(&sim, &dsts, s))
        .collect();
    assert_eq!(
        hex(&got),
        [
            "0xc49a578abfaa147d",
            "0x386ac4d7753abe73",
            "0x9422029bd9c1b670"
        ],
        "routes_to drifted on tiny seed 1 (salts {SALTS:?})"
    );
}

#[test]
fn era_2020_routes_to_matches_golden_on_a_fixed_sample() {
    let sim = Sim::build(SimConfig::era_2020(), 1);
    let n = sim.topo().n_ases();
    let dsts: Vec<AsId> = (0..64).map(|i| AsId((i * n / 64) as u32)).collect();
    let got: Vec<u64> = SALTS
        .iter()
        .map(|&s| routes_fingerprint(&sim, &dsts, s))
        .collect();
    assert_eq!(
        hex(&got),
        [
            "0x3c81174410276fea",
            "0x32ac1fc99d81a4bf",
            "0x1c664f9d08ccba62"
        ],
        "routes_to drifted on era_2020 seed 1 (64-AS sample, salts {SALTS:?})"
    );
}

#[test]
fn tiny_walks_and_rr_probes_match_golden() {
    let sim = Sim::build(SimConfig::tiny(), 1);
    let dsts = sample(&sim, 3, 5, 7);
    assert_eq!(
        hex(&probe_fingerprints(&sim, &dsts)),
        [
            "0x1bbe85ccce86ee96",
            "0xa5bd0919c315a46a",
            "0x6aecf83ab8f329db",
            "0x6f749b256412090c"
        ],
        "[plain walk, option walk, direct RR, spoofed RR] drifted on tiny seed 1"
    );
}

#[test]
fn era_2020_walks_and_rr_probes_match_golden() {
    let sim = Sim::build(SimConfig::era_2020(), 1);
    let dsts = sample(&sim, 97, 211, 401);
    assert_eq!(
        hex(&probe_fingerprints(&sim, &dsts)),
        [
            "0x8aed275e45b40062",
            "0x89e804dc992a67af",
            "0x121a5d5368177be2",
            "0xac30563932de91e6"
        ],
        "[plain walk, option walk, direct RR, spoofed RR] drifted on era_2020 seed 1"
    );
}
