//! Probe accounting, in the categories of the paper's Table 4.
//!
//! Counters are atomic so campaigns can run across threads; snapshots and
//! diffs make per-measurement attribution trivial. Each counter sits on
//! its own cache line ([`CachePadded`]): eight adjacent `AtomicU64`s would
//! otherwise false-share, turning independent per-category increments
//! from parallel workers into a single contended line.
//!
//! Besides the global totals, every increment is charged to the calling
//! task's [`TaskCtx`]. A measurement reads its own probe counts there —
//! diffing the global totals would fold in whatever concurrent tasks sent
//! during the same window, making per-request probe counts depend on the
//! schedule and the worker count.

use crate::ctx::TaskCtx;
use revtr_netsim::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// The probe categories tracked (Table 4 plus infrastructure kinds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// Plain pings (not in Table 4, tracked for completeness).
    Ping,
    /// Non-spoofed RR pings.
    Rr,
    /// Spoofed RR pings.
    SpoofRr,
    /// Non-spoofed TS pings.
    Ts,
    /// Spoofed TS pings.
    SpoofTs,
    /// Traceroute packets (one per TTL probe).
    TraceroutePkts,
    /// Whole traceroutes.
    Traceroutes,
    /// RR pings issued for the background RR-atlas (§4.2), kept separate so
    /// online vs offline overhead can be reported (paper: 1M of 127M).
    AtlasRr,
    /// Retry attempts (meta-counter: the probe itself is also counted in
    /// its own kind; this tracks how many sends were re-sends).
    Retries,
    /// Probes lost to injected faults (meta-counter: transient loss, ICMP
    /// rate limiting, or spoof-filter flaps — not genuine unresponsiveness).
    Lost,
    /// Event-loop steps processed (meta-counter: no packets; bumped by the
    /// engine once per control-block step so span diffs attribute loop
    /// work to stages).
    Events,
    /// Logical bytes admitted into measurement caches (meta-counter: no
    /// packets; bumped at cache put sites so span diffs attribute state
    /// growth to the stage that caused it).
    CacheBytes,
}

const N_KINDS: usize = 12;

impl ProbeKind {
    fn index(self) -> usize {
        match self {
            ProbeKind::Ping => 0,
            ProbeKind::Rr => 1,
            ProbeKind::SpoofRr => 2,
            ProbeKind::Ts => 3,
            ProbeKind::SpoofTs => 4,
            ProbeKind::TraceroutePkts => 5,
            ProbeKind::Traceroutes => 6,
            ProbeKind::AtlasRr => 7,
            ProbeKind::Retries => 8,
            ProbeKind::Lost => 9,
            ProbeKind::Events => 10,
            ProbeKind::CacheBytes => 11,
        }
    }
}

/// Live atomic probe counters.
#[derive(Debug, Default)]
pub struct Counters {
    totals: [CachePadded<AtomicU64>; N_KINDS],
}

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Plain pings.
    pub ping: u64,
    /// Non-spoofed RR pings.
    pub rr: u64,
    /// Spoofed RR pings.
    pub spoof_rr: u64,
    /// Non-spoofed TS pings.
    pub ts: u64,
    /// Spoofed TS pings.
    pub spoof_ts: u64,
    /// Traceroute packets.
    pub traceroute_pkts: u64,
    /// Whole traceroutes.
    pub traceroutes: u64,
    /// Background RR-atlas pings.
    pub atlas_rr: u64,
    /// Retry attempts (meta-counter; each retried send is also counted in
    /// its own kind above).
    pub retries: u64,
    /// Fault-attributed losses (meta-counter; see [`ProbeKind::Lost`]).
    pub lost: u64,
    /// Event-loop steps processed (meta-counter; see [`ProbeKind::Events`]).
    pub events: u64,
    /// Cache bytes admitted (meta-counter; see [`ProbeKind::CacheBytes`]).
    pub cache_bytes: u64,
}

impl Snapshot {
    /// The field counting `kind`.
    fn count_mut(&mut self, kind: ProbeKind) -> &mut u64 {
        match kind {
            ProbeKind::Ping => &mut self.ping,
            ProbeKind::Rr => &mut self.rr,
            ProbeKind::SpoofRr => &mut self.spoof_rr,
            ProbeKind::Ts => &mut self.ts,
            ProbeKind::SpoofTs => &mut self.spoof_ts,
            ProbeKind::TraceroutePkts => &mut self.traceroute_pkts,
            ProbeKind::Traceroutes => &mut self.traceroutes,
            ProbeKind::AtlasRr => &mut self.atlas_rr,
            ProbeKind::Retries => &mut self.retries,
            ProbeKind::Lost => &mut self.lost,
            ProbeKind::Events => &mut self.events,
            ProbeKind::CacheBytes => &mut self.cache_bytes,
        }
    }

    fn from_array(v: &[u64; N_KINDS]) -> Snapshot {
        Snapshot {
            ping: v[0],
            rr: v[1],
            spoof_rr: v[2],
            ts: v[3],
            spoof_ts: v[4],
            traceroute_pkts: v[5],
            traceroutes: v[6],
            atlas_rr: v[7],
            retries: v[8],
            lost: v[9],
            events: v[10],
            cache_bytes: v[11],
        }
    }

    /// Table 4's "Total": option-carrying probes (RR + Spoof RR + TS +
    /// Spoof TS), excluding traceroutes and plain pings, as the paper does.
    pub fn option_probes(&self) -> u64 {
        self.rr + self.spoof_rr + self.ts + self.spoof_ts
    }

    /// All packets of any kind. Retries are already folded into their own
    /// kind's count and `lost` marks packets counted elsewhere, so the
    /// meta-counters are deliberately excluded here.
    pub fn all_packets(&self) -> u64 {
        self.option_probes() + self.ping + self.traceroute_pkts + self.atlas_rr
    }

    /// Every measurement *probe* the campaign issued: option-carrying
    /// probes plus atlas RR pings, plain pings, and whole traceroutes
    /// (probe count, not per-TTL packets). This is the numerator of the
    /// probes-per-revtr economy metric — atlas probing is part of a
    /// campaign's probe budget (in the deployed system it dominates it),
    /// so an economy layer that deduplicates atlas refresh must see its
    /// savings counted here.
    pub fn measurement_probes(&self) -> u64 {
        self.option_probes() + self.atlas_rr + self.ping + self.traceroutes
    }

    /// The probe mix as sorted `(kind, count)` pairs — the Table-4 style
    /// breakdown the perf sentinel records in `BENCH_*.json`. Only real
    /// packet kinds appear; the retry/loss meta-counters are reported
    /// separately.
    pub fn by_kind(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("atlas_rr", self.atlas_rr),
            ("ping", self.ping),
            ("rr", self.rr),
            ("spoof_rr", self.spoof_rr),
            ("spoof_ts", self.spoof_ts),
            ("traceroute_pkts", self.traceroute_pkts),
            ("traceroutes", self.traceroutes),
            ("ts", self.ts),
        ]
    }

    /// Component-wise difference (`self` must be the later snapshot).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            ping: self.ping - earlier.ping,
            rr: self.rr - earlier.rr,
            spoof_rr: self.spoof_rr - earlier.spoof_rr,
            ts: self.ts - earlier.ts,
            spoof_ts: self.spoof_ts - earlier.spoof_ts,
            traceroute_pkts: self.traceroute_pkts - earlier.traceroute_pkts,
            traceroutes: self.traceroutes - earlier.traceroutes,
            atlas_rr: self.atlas_rr - earlier.atlas_rr,
            retries: self.retries - earlier.retries,
            lost: self.lost - earlier.lost,
            events: self.events - earlier.events,
            cache_bytes: self.cache_bytes - earlier.cache_bytes,
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &Snapshot) -> Snapshot {
        Snapshot {
            ping: self.ping + other.ping,
            rr: self.rr + other.rr,
            spoof_rr: self.spoof_rr + other.spoof_rr,
            ts: self.ts + other.ts,
            spoof_ts: self.spoof_ts + other.spoof_ts,
            traceroute_pkts: self.traceroute_pkts + other.traceroute_pkts,
            traceroutes: self.traceroutes + other.traceroutes,
            atlas_rr: self.atlas_rr + other.atlas_rr,
            retries: self.retries + other.retries,
            lost: self.lost + other.lost,
            events: self.events + other.events,
            cache_bytes: self.cache_bytes + other.cache_bytes,
        }
    }

    /// Approximate bytes put on the (virtual) wire, from fixed per-kind
    /// packet weights: 28 bytes for a plain IPv4+ICMP echo or one
    /// traceroute TTL packet, 68 bytes when a 40-byte RR/TS option rides
    /// along. A logical-cost model (like the byte ledgers: deterministic,
    /// no pcap), good enough to rank stages and catch regressions.
    pub fn probe_bytes(&self) -> u64 {
        const PING: u64 = 28; // 20-byte IPv4 header + 8-byte ICMP echo
        const OPT: u64 = PING + 40; // + maximal IPv4 options area (RR/TS)
        let option_probes = self.rr + self.spoof_rr + self.ts + self.spoof_ts + self.atlas_rr;
        option_probes * OPT + (self.ping + self.traceroute_pkts) * PING
    }
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Copy current global values (every task's charges).
    pub fn snapshot(&self) -> Snapshot {
        let mut v = [0u64; N_KINDS];
        for (slot, total) in v.iter_mut().zip(&self.totals) {
            *slot = total.load(Ordering::Relaxed);
        }
        Snapshot::from_array(&v)
    }

    /// Count `n` event-loop steps ([`ProbeKind::Events`]). Public — the
    /// event loop lives in the `core` crate — and charged to the task like
    /// every probe kind, so span diffs attribute loop work to the stage
    /// that did it at any worker count.
    pub fn add_events(&self, n: u64, ctx: &mut TaskCtx) {
        self.add(ProbeKind::Events, n, ctx);
    }

    /// Increment a counter by one.
    pub(crate) fn bump(&self, kind: ProbeKind, ctx: &mut TaskCtx) {
        self.add(kind, 1, ctx);
    }

    /// Increment a counter by `n`, in the totals and in `ctx`.
    pub(crate) fn add(&self, kind: ProbeKind, n: u64, ctx: &mut TaskCtx) {
        self.totals[kind.index()].fetch_add(n, Ordering::Relaxed);
        *ctx.probes.count_mut(kind) += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_and_sum() {
        let c = Counters::new();
        let mut ctx = TaskCtx::default();
        c.bump(ProbeKind::Rr, &mut ctx);
        c.bump(ProbeKind::Rr, &mut ctx);
        c.bump(ProbeKind::SpoofRr, &mut ctx);
        let a = c.snapshot();
        c.add(ProbeKind::Ts, 5, &mut ctx);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.rr, 0);
        assert_eq!(d.ts, 5);
        assert_eq!(b.option_probes(), 2 + 1 + 5);
        let s = a.plus(&d);
        assert_eq!(s, b);
    }

    #[test]
    fn all_packets_counts_everything() {
        let c = Counters::new();
        let mut ctx = TaskCtx::default();
        c.add(ProbeKind::Ping, 2, &mut ctx);
        c.add(ProbeKind::TraceroutePkts, 7, &mut ctx);
        c.add(ProbeKind::AtlasRr, 3, &mut ctx);
        c.add(ProbeKind::SpoofTs, 1, &mut ctx);
        assert_eq!(c.snapshot().all_packets(), 2 + 7 + 3 + 1);
    }

    #[test]
    fn meta_kinds_stay_out_of_packet_accounting() {
        let c = Counters::new();
        let mut ctx = TaskCtx::default();
        c.add(ProbeKind::Rr, 4, &mut ctx);
        c.add(ProbeKind::Ping, 2, &mut ctx);
        c.add_events(100, &mut ctx);
        c.add(ProbeKind::CacheBytes, 4096, &mut ctx);
        let s = c.snapshot();
        assert_eq!(s.events, 100);
        assert_eq!(s.cache_bytes, 4096);
        // Events/CacheBytes are not packets: every packet aggregate and
        // the sentinel's by-kind table must ignore them.
        assert_eq!(s.option_probes(), 4);
        assert_eq!(s.all_packets(), 6);
        assert_eq!(s.measurement_probes(), 6);
        assert!(s.by_kind().iter().all(|(k, _)| !k.contains("events")));
        // But diffs and sums carry them for span attribution.
        let d = c.snapshot().since(&Snapshot::default());
        assert_eq!(d.events, 100);
        assert_eq!(d.plus(&d).cache_bytes, 8192);
    }

    #[test]
    fn probe_bytes_weights_options_against_plain_packets() {
        let s = Snapshot {
            rr: 2,
            spoof_rr: 1,
            atlas_rr: 1,
            ping: 3,
            traceroute_pkts: 5,
            events: 999,      // must not count
            cache_bytes: 999, // must not count
            ..Snapshot::default()
        };
        assert_eq!(s.probe_bytes(), 4 * 68 + 8 * 28);
        assert_eq!(Snapshot::default().probe_bytes(), 0);
    }
}
