//! The event-driven measurement engine.
//!
//! Each in-flight reverse traceroute is a [`MeasureTask`]: a small control
//! block holding the stitching state (current hop, path set, stitch trace,
//! open telemetry spans) and an explicit [`Phase`] enum mirroring the
//! stages the telemetry layer already instruments — destination probe →
//! atlas intersection → rr / spoofed-rr rounds → ts → assume-symmetry.
//! [`MeasureTask::step`] advances the block by exactly one stage (or one
//! spoofed-batch round, the virtual 10 s timer of §5.2.4) and then yields,
//! so a campaign of 50k+ concurrent revtrs costs 50k control blocks and
//! zero parked threads.
//!
//! [`RevtrSystem::run_campaign`] schedules the blocks on a virtual-time
//! priority queue. The loop is seed-deterministic: events are ordered by
//! `(virtual time, request id, sequence)` — the `total_cmp` on time plus
//! the fixed id/sequence tie-break makes the schedule a pure function of
//! the inputs, never of OS thread timing. And because a task's own probe
//! sequence is the same under any schedule, campaign fingerprints and
//! per-request probe counters are identical to the serial driver
//! ([`RevtrSystem::measure`]) whenever cross-request coupling (route
//! churn) is disabled — the property the metamorphic suite pins.
//!
//! Each control block owns a [`TaskCtx`]: its own virtual time and probe
//! counts, which every probe it sends charges beside the shared clock and
//! counters. Durations, probe counts, span offsets and stop-set stamps are
//! read from it, so they hold exactly the task's own addends, in its own
//! order — bitwise the same under any schedule, worker count or thread.

use crate::config::SymmetryPolicy;
use crate::result::{
    Evidence, HopMethod, ProbeDelta, RevtrHop, RevtrResult, RevtrStats, Status, StitchEnd,
    StitchTrace,
};
use crate::system::{novel, RevtrSystem, RrFound, RrHints, RrMachine, RrProgress, StageStart};
use revtr_atlas::SourceAtlas;
use revtr_netsim::{Addr, PrefixId};
use revtr_probing::{Contribution, Note, RequestScope, StoredRr, TaskCtx};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Event-loop tuning. Campaign *results* are invariant to these knobs
/// (the metamorphic suite asserts it); only the dispatch schedule — and
/// under enabled route churn, the churn-flush interleaving — changes.
#[derive(Clone, Copy, Debug)]
pub struct LoopConfig {
    /// Events dispatched per round on the serial loop: up to `quantum`
    /// due events are drained in deadline order before the queue is
    /// consulted again (`1` is pure deadline-first dispatch).
    pub quantum: usize,
    /// Dispatch workers. `1` (the default) runs the loop fully serial
    /// with `quantum` round formation — the reproducible schedule the
    /// metrics goldens pin. More workers switch to a work-conserving
    /// earliest-deadline-first pool: each scoped thread pops the globally
    /// earliest event and steps it, so `quantum` is moot and the realized
    /// interleaving is OS-dependent — but campaign *results* are
    /// bit-identical to the serial loop's, because per-task [`TaskCtx`]
    /// attribution and the striped caches' single-flight fills make a
    /// measurement's outcome independent of its neighbours' scheduling
    /// (the invariance the old thread-per-batch engine's w1==w8 gate
    /// proved, pinned again by the metamorphic suite's dispatch-workers
    /// arm).
    pub workers: usize,
}

impl Default for LoopConfig {
    fn default() -> LoopConfig {
        LoopConfig {
            quantum: 8,
            workers: 1,
        }
    }
}

impl LoopConfig {
    /// The production dispatch shape: a small earliest-deadline-first
    /// worker pool over the shared schedule. Results are identical to
    /// [`LoopConfig::default`]; cache *counter* noise (which concurrent
    /// step wins a single-flight fill) is not reproducible, which is why
    /// golden-pinned paths use the serial default.
    pub fn parallel() -> LoopConfig {
        LoopConfig {
            quantum: 64,
            workers: 8,
        }
    }
}

/// What a campaign run produced, with the loop's own accounting.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-pair results, in input order.
    pub results: Vec<RevtrResult>,
    /// Peak number of admitted-but-unfinished measurements. The loop
    /// admits the whole campaign up front — concurrency costs a control
    /// block, not a thread — so this equals the campaign size (capped at
    /// the admission wave width when stop sets are enabled).
    pub inflight_peak: usize,
    /// Total control-block steps dispatched.
    pub events: u64,
}

/// One admitted request of an open-loop wave: a measurement plus the
/// virtual arrival time and degradation level the admission layer fixed
/// for it. Consumed by [`RevtrSystem::run_wave_timed`].
#[derive(Clone, Copy, Debug)]
pub struct TimedJob {
    /// Reverse traceroute destination.
    pub dst: Addr,
    /// Registered source the path is stitched toward.
    pub src: Addr,
    /// Virtual arrival time in milliseconds since campaign start: the
    /// control block's first ready time and where its [`TaskCtx`] clock
    /// starts.
    pub arrival_ms: f64,
    /// Campaign-unique request id (stop-set contribution stamp and heap
    /// tie-break); callers use the global arrival index.
    pub id: usize,
    /// Degradation-ladder level for this request (0 = full service; see
    /// `MeasureTask::degrade`).
    pub degrade: u8,
}

/// Size in bytes of one in-flight measurement's control block (excluding
/// its heap-owned path state, which grows with the stitched path). The
/// concurrency smoke reports this: 50k+ in-flight measurements cost 50k
/// control blocks, not 50k thread stacks.
pub fn task_footprint_bytes() -> usize {
    std::mem::size_of::<MeasureTask>()
}

/// Priority-queue key: virtual ready-time with the deterministic
/// `(request id, sequence)` tie-break.
struct EventKey {
    vtime: f64,
    id: usize,
    seq: u64,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &EventKey) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &EventKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &EventKey) -> std::cmp::Ordering {
        self.vtime
            .total_cmp(&other.vtime)
            .then(self.id.cmp(&other.id))
            .then(self.seq.cmp(&other.seq))
    }
}

/// Where a control block resumes on its next step. The variants track the
/// stage spans PR 4's telemetry already names; `Rr`/`RrVerify` park the
/// mid-flight spoofed-batch machine across the virtual 10 s timer.
enum Phase {
    /// Atlas lookup, request-scope open, destination probe.
    Start,
    /// Top of the stitching loop: hop budget, reached-check, atlas
    /// intersection, and the beginning of the RR step.
    StitchLoop,
    /// Spoofed-RR rounds of the primary RR step.
    Rr(RrMachine),
    /// Spoofed-RR rounds of the Appx. E verification re-probe.
    RrVerify {
        /// The primary step's (already concluded) discovery.
        found: RrFound,
        /// The open `rr_verify` span.
        vspan: StageStart,
        /// The hop the re-probe must reconfirm (`rev[1]`).
        expected: Addr,
        /// The nested step's spoofed-round state.
        m: RrMachine,
    },
    /// Adopt the RR step's hops, or fall through to ts/symmetry.
    RrAdopt(Option<RrFound>),
    /// Timestamp adjacency tests (revtr 1.0 only).
    Ts,
    /// Traceroute + symmetry assumption / interdomain abort.
    Symmetry,
    /// Terminal: the result has been produced.
    Done,
}

/// The per-measurement control block: one in-flight reverse traceroute.
pub(crate) struct MeasureTask {
    dst: Addr,
    src: Addr,
    src_prefix: Option<PrefixId>,
    atlas: Option<Arc<SourceAtlas>>,
    req: Option<RequestScope>,
    /// The task's own virtual time and probe counts (also its ready-time
    /// key in the event loop's priority queue).
    pub(crate) ctx: TaskCtx,
    /// `ctx.ms` when the measurement started.
    t0_ms: f64,
    stats: RevtrStats,
    trace: StitchTrace,
    hops: Vec<RevtrHop>,
    path_set: HashSet<Addr>,
    cur: Addr,
    iters: usize,
    phase: Phase,
    /// Campaign request id — the middle component of stop-set
    /// contribution stamps (0 on the serial [`RevtrSystem::measure`]
    /// path, the pair index under [`RevtrSystem::run_campaign`]).
    pub(crate) id: usize,
    /// Per-request stop-set contribution sequence (stamp tie-break).
    cseq: u64,
    /// Whether the in-flight RR step skipped its direct probe on a
    /// futility hint — a step that then reveals nothing must not publish
    /// `DirectFutile` as if it had (re)measured the futility.
    rr_direct_skipped: bool,
    /// Same guard for the spoofed ladder: a step that skipped the ladder
    /// on a `SpoofFutile` hint must not re-publish the futility.
    rr_spoof_skipped: bool,
    /// Whether the in-flight ladder saw any usable reply (see
    /// `RrMachine::usable_seen`) — a ladder that did must not be
    /// published as futile even when it revealed nothing novel here.
    rr_ladder_usable: bool,
    /// Degradation-ladder level assigned at admission (0 = full service;
    /// 1 = spoofed batches capped at one probe; 2+ = cache/stop-set/atlas
    /// evidence only, no new RR probes). Fixed for the task's lifetime —
    /// the admission layer, not the engine, moves the ladder.
    pub(crate) degrade: u8,
}

impl MeasureTask {
    /// A control block at the starting line. Does not probe; the first
    /// [`MeasureTask::step`] does.
    pub(crate) fn new(dst: Addr, src: Addr) -> MeasureTask {
        MeasureTask {
            dst,
            src,
            src_prefix: None,
            atlas: None,
            req: None,
            ctx: TaskCtx::default(),
            t0_ms: 0.0,
            stats: RevtrStats::default(),
            trace: StitchTrace::default(),
            hops: Vec::new(),
            path_set: HashSet::new(),
            cur: dst,
            iters: 0,
            phase: Phase::Start,
            id: 0,
            cseq: 0,
            rr_direct_skipped: false,
            rr_spoof_skipped: false,
            rr_ladder_usable: false,
            degrade: 0,
        }
    }

    /// Buffer a stop-set contribution stamped with this task's own virtual
    /// time and `(request id, sequence)` — a pure function of the task's
    /// measurement history, so merge order is schedule-invariant.
    fn contribute(&mut self, sys: &RevtrSystem<'_>, note: Note) {
        let seq = self.cseq;
        self.cseq += 1;
        sys.stopset().contribute(Contribution {
            vtime: self.ctx.ms,
            req: self.id as u64,
            seq,
            note,
        });
    }

    /// Advance the measurement by one stage (or one spoofed-batch round).
    /// Returns the finished result, or `None` when the block yielded.
    pub(crate) fn step(&mut self, sys: &RevtrSystem<'_>) -> Option<RevtrResult> {
        // One loop event per step, charged to the task before any stage
        // span opens so every stage's cost delta includes it. A pure
        // function of the task schedule — identical at any worker count.
        sys.prober().counters().add_events(1, &mut self.ctx);
        match std::mem::replace(&mut self.phase, Phase::Done) {
            Phase::Start => self.start(sys),
            Phase::StitchLoop => self.stitch_head(sys),
            Phase::Rr(m) => self.rr_pending(sys, m),
            Phase::RrVerify {
                found,
                vspan,
                expected,
                m,
            } => self.verify_pending(sys, found, vspan, expected, m),
            Phase::RrAdopt(found) => self.adopt(sys, found),
            Phase::Ts => self.ts(sys),
            Phase::Symmetry => self.symmetry(sys),
            Phase::Done => unreachable!("stepped a finished measurement"),
        }
    }

    /// Seal the result: the duration and probe counts come from the
    /// task's own ctx, so they attribute exactly this task's charges under
    /// any scheduling.
    fn finish(&mut self, sys: &RevtrSystem<'_>, status: Status) -> RevtrResult {
        self.stats.duration_s = (self.ctx.ms - self.t0_ms) / 1000.0;
        self.stats.probes = ProbeDelta::from_snapshot(&self.ctx.probes);
        if let Some(req) = self.req.as_mut() {
            req.finish(status.label(), self.ctx.ms);
        }
        let mut r = RevtrResult {
            dst: self.dst,
            src: self.src,
            status,
            hops: std::mem::take(&mut self.hops),
            stats: self.stats,
            trace: std::mem::take(&mut self.trace),
        };
        sys.flag_suspicious(&mut r);
        r
    }

    fn start(&mut self, sys: &RevtrSystem<'_>) -> Option<RevtrResult> {
        let atlas = sys.task_atlas(&mut self.ctx, self.src);
        let prober = sys.prober();
        self.t0_ms = self.ctx.ms;
        self.src_prefix = sys.sim().host_prefix(self.src);
        // Telemetry request scope (inert unless the prober carries an
        // enabled handle). The origin is this task's virtual time, so
        // span offsets are invariant to concurrent measurements' advances.
        let mut req = prober
            .telemetry()
            .request(self.dst.0, self.src.0, self.ctx.ms);

        // The destination must answer something.
        let st = sys.stage_enter(&mut req, &self.ctx, "destination_probe");
        let answered = prober.ping(&mut self.ctx, self.src, self.dst).is_some();
        sys.stage_exit(
            &mut req,
            &self.ctx,
            st,
            &[("answered", u64::from(answered))],
        );
        self.req = Some(req);
        self.atlas = Some(atlas);
        if !answered {
            self.trace.end = Some(StitchEnd::Unresponsive);
            return Some(self.finish(sys, Status::Unresponsive));
        }

        self.hops.push(RevtrHop {
            addr: Some(self.dst),
            method: HopMethod::Destination,
            suspicious_gap_before: false,
        });
        self.trace.entries.push(Evidence::Destination);
        self.path_set.insert(self.dst);
        self.cur = self.dst;
        self.phase = Phase::StitchLoop;
        None
    }

    fn stitch_head(&mut self, sys: &RevtrSystem<'_>) -> Option<RevtrResult> {
        if self.iters == sys.config().max_path_hops {
            self.trace.end = Some(StitchEnd::HopBudget);
            return Some(self.finish(sys, Status::Stuck));
        }
        self.iters += 1;
        if sys.reached(self.cur, self.src, self.src_prefix) {
            self.trace.end = Some(StitchEnd::ReachedSource);
            return Some(self.finish(sys, Status::Complete));
        }

        // 1. Atlas intersection.
        let atlas = self.atlas.clone().expect("atlas resolved in Start");
        let atlas_span = self.enter(sys, "atlas_intersection");
        if let Some(inter) = sys
            .lookup_intersection(self.src, &atlas, self.cur)
            .filter(|i| {
                // Hardened engines cross-validate the suffix before
                // adopting it (poisoned-atlas countermeasure): the join
                // must name the frontier router (or its /30 peer) and
                // every visible adjacent pair must be plausibly
                // consecutive — the same checks the audit oracle grades.
                // A rejected intersection is demoted: the step falls
                // through to RR and, failing that, assumed symmetry,
                // with the demotion recorded in telemetry.
                if !sys.config().harden || sys.atlas_suffix_plausible(self.cur, atlas.suffix(*i)) {
                    return true;
                }
                sys.prober()
                    .telemetry()
                    .counter_add("core.harden.atlas_rejected", 1);
                false
            })
        {
            sys.note_intersection_usage(self.src, inter.trace);
            self.stats.intersected_trace = Some(inter.trace);
            self.stats.intersected_hop = Some(inter.hop);
            self.stats.intersected_trace_age_h =
                Some(atlas.trace_age_hours(inter, sys.sim().now_hours()));
            let t = &atlas.traces[inter.trace];
            let suffix = atlas.suffix(inter);
            for (i, h) in suffix.iter().enumerate() {
                if i == 0 && *h == Some(self.cur) {
                    continue; // already in the path
                }
                self.stats.atlas_hops += 1;
                self.trace.entries.push(if i == 0 {
                    // An alias join: this hop's address differs from
                    // `cur` but names the same router (or /30 link).
                    Evidence::AtlasIntersection {
                        source: self.src,
                        vp: t.vp,
                        at_hours: t.at_hours,
                        joined: self.cur,
                    }
                } else {
                    Evidence::TrToSource {
                        source: self.src,
                        vp: t.vp,
                        at_hours: t.at_hours,
                    }
                });
                self.hops.push(RevtrHop {
                    addr: *h,
                    method: HopMethod::AtlasIntersection,
                    suspicious_gap_before: false,
                });
            }
            let atlas_hops = u64::from(self.stats.atlas_hops);
            self.exit(sys, atlas_span, &[("hit", 1), ("atlas_hops", atlas_hops)]);
            self.trace.end = Some(StitchEnd::AtlasSuffix);
            return Some(self.finish(sys, Status::Complete));
        }
        self.exit(sys, atlas_span, &[("hit", 0)]);

        // 2. Campaign stop sets: reuse an earlier request's reverse-hop
        // evidence at this (source, router) before spending any probes —
        // the Doubletree-style backward stop. The stored hops are
        // re-filtered against *this* path, and adoption replays the
        // original provenance, exactly like a measurement-cache hit.
        let mut hints = if sys.config().use_stop_sets {
            let ss = self.enter(sys, "stopset_backward");
            let hit = sys.stopset().backward(self.src, self.cur);
            let reused = hit.as_ref().map_or(0, |(s, _)| s.hops.len() as u64);
            self.exit(
                sys,
                ss,
                &[("hit", u64::from(hit.is_some())), ("reused", reused)],
            );
            if let Some((stored, spoofed)) = hit {
                let new = novel(&self.path_set, &stored.hops);
                if !new.is_empty() {
                    self.stats.stopset_reused_steps += 1;
                    self.phase = Phase::RrAdopt(Some((new, stored.provenance, spoofed)));
                    return None;
                }
            }
            let stop = sys.stopset();
            let skip_spoofed = stop.spoof_futile(self.cur);
            // A skipped ladder has no use for its winner or VP prunes
            // (and consulting them would inflate the hit counters).
            let plan = if skip_spoofed {
                None
            } else {
                sys.stop_plan_key(self.cur)
            };
            RrHints {
                skip_direct: stop.direct_futile(self.src, self.cur),
                skip_spoofed,
                winner: plan.and_then(|p| stop.winner(p)),
                futile: plan.map(|p| stop.futile_vps(p)).unwrap_or_default(),
                batch_cap: None,
            }
        } else {
            RrHints::default()
        };
        if sys.config().harden {
            // VP quarantine (spoof-filter countermeasure): vantage points
            // whose last SPOOF_WINDOW spoofed probes all vanished are
            // deprioritized — moved to the back of the ladder, never
            // dropped, so a recovering VP re-proves itself on its next
            // (cheap, late-ladder) attempt.
            let quarantined = sys.stopset().quarantined_vps();
            if !quarantined.is_empty() {
                sys.stopset()
                    .note_quarantine_skips(quarantined.len() as u64);
                hints.futile.extend(quarantined);
            }
        }
        // Degradation ladder (admission control's brownout levels, set
        // per timed job): L1 shrinks the spoofed batch to one probe; L2+
        // additionally answers from cache/stop-set/atlas evidence only —
        // no new RR probes at all. The skip flags below keep a degraded
        // step from publishing false futility into the stop sets, the
        // same guard the stop-set hints already need.
        match self.degrade {
            0 => {}
            1 => {
                hints.batch_cap = Some(1);
                sys.prober()
                    .telemetry()
                    .counter_add("core.degrade.capped_steps", 1);
            }
            _ => {
                hints.batch_cap = Some(1);
                hints.skip_direct = true;
                hints.skip_spoofed = true;
                sys.prober()
                    .telemetry()
                    .counter_add("core.degrade.rr_suppressed", 1);
            }
        }
        self.rr_direct_skipped = hints.skip_direct;
        self.rr_spoof_skipped = hints.skip_spoofed;
        self.rr_ladder_usable = false;

        // 3. Record route (direct probe now; spoofed rounds event-driven).
        match self.rr_begin(sys, self.cur, hints) {
            RrProgress::Done(found) => self.after_primary_rr(sys, found),
            RrProgress::Pending(m) => self.phase = Phase::Rr(m),
        }
        None
    }

    fn rr_pending(&mut self, sys: &RevtrSystem<'_>, mut m: RrMachine) -> Option<RevtrResult> {
        match self.rr_round(sys, &mut m) {
            None => self.phase = Phase::Rr(m),
            Some(found) => {
                self.rr_ladder_usable = m.usable_seen;
                if sys.config().use_stop_sets {
                    if let Some(plan) = sys.stop_plan_key(self.cur) {
                        for vp in std::mem::take(&mut m.futile_vps) {
                            self.contribute(sys, Note::VpFutile { plan, vp });
                        }
                    }
                }
                if sys.config().harden {
                    // Feed each VP's landed/vanished outcomes into the
                    // sliding quarantine windows (published at the next
                    // merge barrier, like every stop-set contribution).
                    for (vp, landed) in m.take_spoof_outcomes() {
                        self.contribute(sys, Note::VpSpoofOutcome { vp, landed });
                    }
                }
                self.after_primary_rr(sys, found);
            }
        }
        None
    }

    /// The primary RR step concluded: start the Appx. E verification
    /// re-probe when configured and applicable, else go adopt.
    fn after_primary_rr(&mut self, sys: &RevtrSystem<'_>, found: Option<RrFound>) {
        // Publish what the step learned to the campaign stop sets
        // (buffered; visible to other requests after the next merge
        // barrier). `self.cur` is still the frontier router here — adopt
        // has not advanced it yet.
        if sys.config().use_stop_sets {
            match found.as_ref() {
                Some((rev, prov, spoofed)) => {
                    self.contribute(
                        sys,
                        Note::Backward {
                            src: self.src,
                            cur: self.cur,
                            spoofed: *spoofed,
                            stored: StoredRr {
                                hops: rev.clone(),
                                provenance: *prov,
                            },
                        },
                    );
                    if *spoofed {
                        if let Some(plan) = sys.stop_plan_key(self.cur) {
                            self.contribute(
                                sys,
                                Note::Winner {
                                    plan,
                                    vp: prov.sender,
                                },
                            );
                        }
                        // The spoofed ladder won, so the direct probe
                        // (when actually sent) revealed nothing.
                        if !self.rr_direct_skipped {
                            self.contribute(
                                sys,
                                Note::DirectFutile {
                                    src: self.src,
                                    cur: self.cur,
                                },
                            );
                        }
                    }
                }
                None => {
                    if !self.rr_direct_skipped {
                        self.contribute(
                            sys,
                            Note::DirectFutile {
                                src: self.src,
                                cur: self.cur,
                            },
                        );
                    }
                    // An empty-handed conclusion with the ladder actually
                    // run means the *full* ladder was exhausted (the
                    // winner-solo path falls back to the staged full
                    // queues before concluding).
                    // Only mark the router spoof-futile when the whole
                    // ladder saw *zero usable replies*: a reply that was
                    // usable but merely not novel for this request's path
                    // is request-specific evidence, not proof the router
                    // ignores spoofed RR probes.
                    if !self.rr_spoof_skipped && !self.rr_ladder_usable {
                        self.contribute(sys, Note::SpoofFutile { cur: self.cur });
                    }
                }
            }
        }
        // Hardened engines always run the Appx. E re-probe: the DBR
        // scenario's violating regions are only detectable by an
        // independent re-measurement of the revealed chain.
        if sys.config().verify_dbr || sys.config().harden {
            if let Some(f) = found.as_ref().filter(|(r, _, _)| r.len() >= 2) {
                // Appx. E optional mode: re-probe the first revealed hop
                // and confirm the chain continues the same way. The
                // comparison is against the *immediate* next hop: a
                // source-dependent router sends the two probes' replies
                // down different links right away, and a weaker
                // "appears anywhere later" check misses detours that
                // reconverge within a hop or two.
                if let Some(first) = f.0.first().copied().filter(|a| !a.is_private()) {
                    let expected = f.0[1];
                    let vspan = self.enter(sys, "rr_verify");
                    // The verification re-probe neither consults nor feeds
                    // the stop sets: its whole point is an independent
                    // re-measurement.
                    match self.rr_begin(sys, first, RrHints::default()) {
                        RrProgress::Done(v) => {
                            let violated = self.close_verify(sys, v, expected, vspan);
                            self.phase =
                                Phase::RrAdopt(harden_demote(sys, self.cur, found, violated));
                        }
                        RrProgress::Pending(m) => {
                            self.phase = Phase::RrVerify {
                                found: found.expect("filter above matched Some"),
                                vspan,
                                expected,
                                m,
                            };
                        }
                    }
                    return;
                }
            }
        }
        self.phase = Phase::RrAdopt(found);
    }

    fn verify_pending(
        &mut self,
        sys: &RevtrSystem<'_>,
        found: RrFound,
        vspan: StageStart,
        expected: Addr,
        mut m: RrMachine,
    ) -> Option<RevtrResult> {
        match self.rr_round(sys, &mut m) {
            None => {
                self.phase = Phase::RrVerify {
                    found,
                    vspan,
                    expected,
                    m,
                };
            }
            Some(v) => {
                let violated = self.close_verify(sys, v, expected, vspan);
                self.phase = Phase::RrAdopt(harden_demote(sys, self.cur, Some(found), violated));
            }
        }
        None
    }

    /// Returns whether *this* re-probe detected a violation (the stats
    /// flag is cumulative across the measurement; the fresh verdict is
    /// what the hardened demotion keys on).
    fn close_verify(
        &mut self,
        sys: &RevtrSystem<'_>,
        v: Option<RrFound>,
        expected: Addr,
        vspan: StageStart,
    ) -> bool {
        let verify = v.map(|(h, _, _)| h).unwrap_or_default();
        let mut fresh = false;
        if let Some(&h0) = verify.first() {
            if h0 != expected && !sys.hop_match(h0, expected) {
                fresh = true;
                self.stats.dbr_violation_detected = true;
                // Campaign-wide violation rate: a handful per campaign is
                // route-diversity noise; a DBR-violating region drives it
                // an order of magnitude higher, which the scenario SLO
                // policy alerts on.
                sys.prober()
                    .telemetry()
                    .counter_add("core.verify.dbr_mismatch", 1);
            }
        }
        let violation = u64::from(self.stats.dbr_violation_detected);
        self.exit(sys, vspan, &[("violation", violation)]);
        fresh
    }

    fn adopt(&mut self, sys: &RevtrSystem<'_>, found: Option<RrFound>) -> Option<RevtrResult> {
        if let Some((rev, prov, spoofed)) = found {
            let method = if spoofed {
                HopMethod::SpoofedRecordRoute
            } else {
                HopMethod::RecordRoute
            };
            for &h in &rev {
                self.path_set.insert(h);
                self.trace.entries.push(if spoofed {
                    Evidence::SpoofedRecordRoute { prov }
                } else {
                    Evidence::RecordRoute { prov }
                });
                self.hops.push(RevtrHop {
                    addr: Some(h),
                    method,
                    suspicious_gap_before: false,
                });
            }
            // Continue from the last routable hop.
            if let Some(&next) = rev.iter().rev().find(|a| !a.is_private()) {
                self.cur = next;
                self.phase = Phase::StitchLoop;
                return None;
            }
        }
        self.phase = if sys.config().use_timestamp {
            Phase::Ts
        } else {
            Phase::Symmetry
        };
        None
    }

    fn ts(&mut self, sys: &RevtrSystem<'_>) -> Option<RevtrResult> {
        let ts_span = self.enter(sys, "ts_step");
        let adj = sys.ts_step(&mut self.ctx, self.cur, self.src, &self.path_set);
        let found = u64::from(adj.is_some());
        self.exit(sys, ts_span, &[("found", found)]);
        if let Some(adj) = adj {
            self.path_set.insert(adj);
            self.trace.entries.push(Evidence::Timestamp {
                tested_from: self.cur,
            });
            self.hops.push(RevtrHop {
                addr: Some(adj),
                method: HopMethod::Timestamp,
                suspicious_gap_before: false,
            });
            self.cur = adj;
            self.phase = Phase::StitchLoop;
        } else {
            self.phase = Phase::Symmetry;
        }
        None
    }

    fn symmetry(&mut self, sys: &RevtrSystem<'_>) -> Option<RevtrResult> {
        let policy = sys.config().symmetry;
        let sym_span = self.enter(sys, "assume_symmetry");
        let sym = sys.symmetry_step(&mut self.ctx, self.cur, self.src);
        let adopted = sym.as_ref().is_some_and(|d| {
            !(self.path_set.contains(&d.penult)
                || d.interdomain && policy == SymmetryPolicy::IntradomainOnly)
        });
        let interdomain = sym.as_ref().map_or(0, |d| u64::from(d.interdomain));
        self.exit(
            sys,
            sym_span,
            &[
                ("adopted", u64::from(adopted)),
                ("interdomain", interdomain),
            ],
        );
        let Some(d) = sym else {
            self.trace.end = Some(StitchEnd::Stuck);
            return Some(self.finish(sys, Status::Stuck));
        };
        if self.path_set.contains(&d.penult) {
            self.trace.end = Some(StitchEnd::Stuck);
            return Some(self.finish(sys, Status::Stuck));
        }
        if d.interdomain && policy == SymmetryPolicy::IntradomainOnly {
            self.trace.end = Some(StitchEnd::AbortInterdomain {
                cur: self.cur,
                penult: d.penult,
                cur_as: d.cur_as,
                penult_as: d.penult_as,
            });
            return Some(self.finish(sys, Status::AbortedInterdomain));
        }
        self.stats.assumed_symmetric += 1;
        if d.interdomain {
            self.stats.assumed_interdomain += 1;
        }
        self.path_set.insert(d.penult);
        self.trace.entries.push(Evidence::AssumedSymmetric {
            cur: self.cur,
            penult: d.penult,
            cur_as: d.cur_as,
            penult_as: d.penult_as,
            interdomain: d.interdomain,
            policy,
        });
        self.hops.push(RevtrHop {
            addr: Some(d.penult),
            method: HopMethod::AssumedSymmetric,
            suspicious_gap_before: false,
        });
        self.cur = d.penult;
        self.phase = Phase::StitchLoop;
        None
    }

    /// Begin a record-route step against `cur` (see [`RevtrSystem::rr_begin`]).
    fn rr_begin(&mut self, sys: &RevtrSystem<'_>, cur: Addr, hints: RrHints) -> RrProgress {
        let req = self.req.as_mut().expect("request scope opened in Start");
        let (ctx, stats) = (&mut self.ctx, &mut self.stats);
        sys.rr_begin(ctx, cur, self.src, &self.path_set, stats, req, hints)
    }

    /// One spoofed-batch round of an RR step (see [`RevtrSystem::rr_round`]).
    fn rr_round(&mut self, sys: &RevtrSystem<'_>, m: &mut RrMachine) -> Option<Option<RrFound>> {
        let req = self.req.as_mut().expect("request scope opened in Start");
        let (ctx, stats) = (&mut self.ctx, &mut self.stats);
        sys.rr_round(ctx, m, self.src, &self.path_set, stats, req)
    }

    /// Open a stage span on the task's request scope.
    fn enter(&mut self, sys: &RevtrSystem<'_>, stage: &'static str) -> StageStart {
        let req = self.req.as_mut().expect("request scope opened in Start");
        sys.stage_enter(req, &self.ctx, stage)
    }

    /// Close a stage span opened by [`MeasureTask::enter`].
    fn exit(&mut self, sys: &RevtrSystem<'_>, st: StageStart, extra: &[(&'static str, u64)]) {
        let req = self.req.as_mut().expect("request scope opened in Start");
        sys.stage_exit(req, &self.ctx, st, extra);
    }
}

/// Hardened engines refuse to adopt an RR chain whose Appx. E re-probe
/// just contradicted it *and* whose junction off the frontier router the
/// audit oracle cannot explain: the chain is demoted — the step falls
/// through to ts/symmetry — instead of stitching hops a DBR-violating
/// region diverted off the true reverse path. A contradiction alone is
/// not enough (route diversity and aliasing produce honest mismatches,
/// and demoting on those measurably trades real coverage for nothing);
/// the oracle corroboration keeps the demotion to chains that are wrong,
/// not merely disputed. Unhardened engines keep the revtr 1.0/2.0
/// behaviour (adopt, but flag the result suspicious).
fn harden_demote(
    sys: &RevtrSystem<'_>,
    cur: Addr,
    found: Option<RrFound>,
    violated: bool,
) -> Option<RrFound> {
    if violated && sys.config().harden {
        if let Some((hops, _, _)) = &found {
            let implausible = hops
                .first()
                .is_some_and(|&h| !sys.junction_plausible(cur, h));
            if implausible {
                sys.prober()
                    .telemetry()
                    .counter_add("core.harden.dbr_demoted", 1);
                return None;
            }
        }
    }
    found
}

/// Campaign wave width when stop sets are enabled: requests admitted per
/// merge barrier. Between barriers tasks only *buffer* stop-set
/// contributions, so every request in a wave sees exactly the evidence
/// published by earlier waves — a pure function of the input order, never
/// of worker scheduling. Smaller waves share evidence sooner; larger ones
/// expose more concurrency. 64 keeps the admission pipeline full while
/// still letting a 2000-request campaign reuse evidence ~30 times over.
const STOPSET_WAVE: usize = 64;

impl<'s> RevtrSystem<'s> {
    /// Run a whole campaign on the deterministic virtual event loop.
    ///
    /// Every `(dst, src)` pair is admitted as a control block at virtual
    /// time zero; the loop then repeatedly pops the earliest event —
    /// ordered by `(virtual time, request id, sequence)` — and advances
    /// that block one stage or one spoofed-batch round. Spoofed 10 s
    /// collection timeouts thus interleave across requests instead of
    /// each parking a worker thread. With stop sets off the whole
    /// campaign is admitted up front; with them on, admission proceeds in
    /// [`STOPSET_WAVE`]-sized waves with a deterministic stop-set merge
    /// barrier between waves.
    ///
    /// Results come back in input order. A panicking measurement aborts
    /// the campaign and surfaces as `Err` with the panic payload.
    pub fn run_campaign(
        &self,
        pairs: &[(Addr, Addr)],
        lc: LoopConfig,
    ) -> std::thread::Result<CampaignOutcome> {
        // Hardened campaigns need the wave barriers even with stop sets
        // off: quarantine windows are ordinary (buffered) stop-set
        // contributions and only become visible at a merge.
        let use_stop = self.config().use_stop_sets || self.config().harden;
        let wave = if use_stop { STOPSET_WAVE } else { usize::MAX };
        let mut tasks: Vec<Option<MeasureTask>> = pairs
            .iter()
            .enumerate()
            .map(|(id, &(dst, src))| {
                let mut t = MeasureTask::new(dst, src);
                t.id = id;
                Some(t)
            })
            .collect();
        let mut results: Vec<Option<RevtrResult>> = pairs.iter().map(|_| None).collect();
        let inflight_peak = pairs.len().min(wave);
        let mut events: u64 = 0;
        let mut start = 0;
        let mut wave_ord: u64 = 0;
        while start < pairs.len() {
            let end = pairs.len().min(start.saturating_add(wave));
            let mut heap: BinaryHeap<Reverse<EventKey>> = (start..end)
                .map(|id| {
                    Reverse(EventKey {
                        vtime: 0.0,
                        id,
                        seq: 0,
                    })
                })
                .collect();
            self.dispatch(&mut tasks, &mut results, &mut heap, lc, &mut events)?;
            if use_stop {
                // Wave barrier: fold this wave's buffered contributions
                // into the published view in (vtime, id, seq) order.
                self.stopset().merge_pending();
            }
            self.record_engine_resources(wave_ord, end - start);
            wave_ord += 1;
            start = end;
        }
        Ok(CampaignOutcome {
            results: results
                .into_iter()
                .map(|r| r.expect("every admitted task completed"))
                .collect(),
            inflight_peak,
            events,
        })
    }

    /// Run one admission wave of *timed* requests on the event loop.
    ///
    /// This is the open-loop entry point: each [`TimedJob`] becomes a
    /// control block whose first event fires at the job's virtual
    /// **arrival time** instead of zero, and whose [`TaskCtx`] clock is
    /// anchored there — so a request admitted at hour 30 sees hour-30
    /// cache ages and its telemetry spans are offset from its own
    /// admission, exactly as if it had arrived at a live service. The
    /// caller (the admission layer) owns wave chunking, shedding, and
    /// the degradation ladder; this method only executes what was
    /// admitted and merges buffered stop-set contributions at the end of
    /// the wave when stop sets (or hardening) are enabled.
    ///
    /// `jobs` must be sorted by `(arrival_ms, id)` with campaign-unique,
    /// increasing ids — the same total order the arrival generator
    /// emits — so the wave-local schedule reproduces the global one.
    /// Results come back in job order; determinism across `lc.workers`
    /// follows from the same per-task ctx argument as
    /// [`RevtrSystem::run_campaign`].
    pub fn run_wave_timed(
        &self,
        jobs: &[TimedJob],
        lc: LoopConfig,
    ) -> std::thread::Result<CampaignOutcome> {
        let use_stop = self.config().use_stop_sets || self.config().harden;
        let mut tasks: Vec<Option<MeasureTask>> = jobs
            .iter()
            .map(|j| {
                let mut t = MeasureTask::new(j.dst, j.src);
                t.id = j.id;
                t.degrade = j.degrade;
                t.ctx = TaskCtx::at(j.arrival_ms);
                Some(t)
            })
            .collect();
        let mut results: Vec<Option<RevtrResult>> = jobs.iter().map(|_| None).collect();
        let mut events: u64 = 0;
        let mut heap: BinaryHeap<Reverse<EventKey>> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                Reverse(EventKey {
                    vtime: j.arrival_ms,
                    id: i,
                    seq: 0,
                })
            })
            .collect();
        self.dispatch(&mut tasks, &mut results, &mut heap, lc, &mut events)?;
        if use_stop {
            self.stopset().merge_pending();
        }
        // Barrier ordinal for open-loop waves: the wave's first arrival
        // (milliseconds) — deterministic and increasing, since the
        // admission layer feeds arrival-sorted waves.
        let ord = jobs.first().map(|j| j.arrival_ms as u64).unwrap_or(0);
        self.record_engine_resources(ord, jobs.len());
        Ok(CampaignOutcome {
            results: results
                .into_iter()
                .map(|r| r.expect("every admitted task completed"))
                .collect(),
            inflight_peak: jobs.len(),
            events,
        })
    }

    /// Record the engine's own ledgers plus a full subsystem snapshot at a
    /// wave barrier (no-op unless profiling is enabled). The wave just
    /// drained held `admitted` control blocks, each with exactly one
    /// outstanding event in the schedule heap — both ledgers' wave peaks,
    /// fixed by the admission plan rather than worker scheduling.
    fn record_engine_resources(&self, ord: u64, admitted: usize) {
        let tele = self.prober().telemetry();
        if !tele.profiling() {
            return;
        }
        tele.resource_record(
            "engine.control_blocks",
            ord,
            (admitted * task_footprint_bytes()) as u64,
        );
        tele.resource_record(
            "engine.event_queue",
            ord,
            (admitted * std::mem::size_of::<EventKey>()) as u64,
        );
        self.snapshot_resources(ord);
    }

    /// Drain one wave's schedule: on the serial loop in rounds of
    /// `lc.quantum` due events, or on a worker pool when `lc.workers > 1`.
    fn dispatch(
        &self,
        tasks: &mut [Option<MeasureTask>],
        results: &mut [Option<RevtrResult>],
        heap: &mut BinaryHeap<Reverse<EventKey>>,
        lc: LoopConfig,
        events: &mut u64,
    ) -> std::thread::Result<()> {
        let workers = lc.workers.max(1).min(tasks.len().max(1));
        if workers == 1 {
            return self.run_campaign_serial(tasks, results, heap, lc.quantum.max(1), events);
        }
        // Never more dispatch workers than the host has cores:
        // oversubscribed workers add only scheduler churn and lock convoys
        // on the shared schedule (a single-core host measurably loses ~5%
        // wall at 8 workers). The clamp can land on 1 and still take the
        // pool path — run-to-completion claiming, not the serial loop's
        // round interleaving — so a `workers > 1` config keeps its
        // dispatch mode everywhere and only the thread count adapts to the
        // host.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.run_campaign_workers(tasks, results, heap, workers.min(cores), events)
    }

    /// The serial dispatch path: drain the wave's schedule in rounds of
    /// `round` due events (the `quantum` shape).
    fn run_campaign_serial(
        &self,
        tasks: &mut [Option<MeasureTask>],
        results: &mut [Option<RevtrResult>],
        heap: &mut BinaryHeap<Reverse<EventKey>>,
        round: usize,
        events: &mut u64,
    ) -> std::thread::Result<()> {
        let mut due: Vec<EventKey> = Vec::with_capacity(round);
        while let Some(Reverse(ev)) = heap.pop() {
            // Form the round: the earliest event plus up to `round - 1`
            // more, in deadline order. A block stepped early in the round
            // is not reconsidered until the next round even if its new
            // ready-time precedes the round's remaining events — and the
            // metamorphic suite proves results don't depend on `round`.
            due.clear();
            due.push(ev);
            while due.len() < round {
                match heap.pop() {
                    Some(Reverse(e)) => due.push(e),
                    None => break,
                }
            }
            for ev in due.drain(..) {
                *events += 1;
                let task = tasks[ev.id].as_mut().expect("pending task exists");
                match catch_unwind(AssertUnwindSafe(|| task.step(self)))? {
                    Some(r) => {
                        results[ev.id] = Some(r);
                        tasks[ev.id] = None;
                    }
                    None => {
                        heap.push(Reverse(EventKey {
                            vtime: task.ctx.ms,
                            id: ev.id,
                            seq: ev.seq + 1,
                        }));
                    }
                }
            }
        }
        Ok(())
    }

    /// The parallel dispatch path: `workers` scoped threads claim
    /// control blocks off the shared schedule in `(vtime, id, seq)`
    /// order and run each claimed block's steps back-to-back to
    /// completion. Spoofed-batch waits are *virtual* — they cost no wall
    /// time — so interleaving a block's steps with its neighbours' buys
    /// nothing on wall-clock and was measured to cost ~15% in lost cache
    /// locality; running the steps consecutively keeps the block hot
    /// while each task's ctx clock still starts at its own origin (which
    /// is what keeps cache entries from expiring under late thread-clock
    /// times, the old pool's hidden recompute tax). The realized
    /// cross-block interleaving is OS-dependent; campaign *results* are
    /// not — the metamorphic suite pins parallel output bit-identical to
    /// the serial loop's, the same invariance the old engine's w1==w8
    /// gate proved.
    fn run_campaign_workers(
        &self,
        tasks: &mut [Option<MeasureTask>],
        results: &mut [Option<RevtrResult>],
        heap: &mut BinaryHeap<Reverse<EventKey>>,
        workers: usize,
        events: &mut u64,
    ) -> std::thread::Result<()> {
        struct Shared<'t> {
            heap: BinaryHeap<Reverse<EventKey>>,
            tasks: &'t mut [Option<MeasureTask>],
            results: &'t mut [Option<RevtrResult>],
            events: u64,
            /// First panic payload; set once, drains the pool.
            failed: Option<Box<dyn std::any::Any + Send + 'static>>,
        }
        let shared = Mutex::new(Shared {
            heap: std::mem::take(heap),
            tasks,
            results,
            events: *events,
            failed: None,
        });
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let mut guard = shared.lock().expect("schedule lock");
                    if guard.failed.is_some() {
                        return;
                    }
                    let Some(Reverse(ev)) = guard.heap.pop() else {
                        // Blocks already claimed by other workers never
                        // return to the queue, so an empty heap means
                        // this worker is done.
                        return;
                    };
                    let mut task = guard.tasks[ev.id].take().expect("pending task exists");
                    drop(guard);
                    let (steps, out) = self.burst_task(&mut task);
                    guard = shared.lock().expect("schedule lock");
                    guard.events += steps;
                    match out {
                        Err(payload) => {
                            guard.failed.get_or_insert(payload);
                            return;
                        }
                        Ok(r) => guard.results[ev.id] = Some(r),
                    }
                });
            }
        });
        let shared = shared.into_inner().expect("schedule lock");
        *events = shared.events;
        match shared.failed {
            Some(payload) => Err(payload),
            None => Ok(()),
        }
    }

    /// Run one claimed control block's steps back-to-back to completion —
    /// the parallel path's unit of work. Returns the step count alongside
    /// the outcome; a panic comes back as `Err` with its payload.
    fn burst_task(&self, task: &mut MeasureTask) -> (u64, std::thread::Result<RevtrResult>) {
        let mut steps = 0u64;
        let out = catch_unwind(AssertUnwindSafe(|| loop {
            steps += 1;
            if let Some(r) = task.step(self) {
                return r;
            }
        }));
        (steps, out)
    }
}
