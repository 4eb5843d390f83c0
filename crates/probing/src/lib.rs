//! # revtr-probing — measurement primitives over the simulated Internet
//!
//! This crate is the measurement substrate of the revtr reproduction: it
//! wraps [`revtr_netsim`]'s probe engine with
//!
//! * **accounting** in the paper's Table 4 categories (RR / spoofed RR /
//!   TS / spoofed TS, plus traceroutes and the background RR-atlas budget),
//! * a **virtual clock** charging realistic latency: per-probe RTTs,
//!   per-batch 10-second spoofed-probe collection timeouts (§5.2.4),
//! * a **measurement cache** with a one-day virtual TTL (Insight 1.4),
//! * a per-task [`TaskCtx`] every probe charges next to the shared
//!   totals, so each measurement reads its own time and probe counts,
//!
//! so that the throughput/latency/overhead results (Table 4, Fig. 5c) fall
//! out of counters rather than instrumentation.
//!
//! ```
//! use revtr_netsim::{Sim, SimConfig};
//! use revtr_probing::{Prober, TaskCtx};
//!
//! let sim = Sim::build(SimConfig::tiny(), 7);
//! let prober = Prober::new(&sim);
//! let vp = sim.topo().vp_sites[0].host;
//! let dst = sim.topo().vp_sites[1].host;
//! let mut ctx = TaskCtx::default();
//! prober.rr_ping(&mut ctx, vp, dst).expect("VP answers RR");
//! assert_eq!(prober.counters().snapshot().rr, 1);
//! assert_eq!(ctx.probes.rr, 1);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod counters;
pub mod ctx;
pub mod prober;
pub mod stopset;

pub use cache::{
    CacheStats, CachedRr, MeasurementCache, RrKey, DEFAULT_TTL_HOURS, RR_ENTRY_BYTES,
    TRACEROUTE_ENTRY_BYTES,
};
pub use clock::{Clock, SPOOF_BATCH_TIMEOUT_MS};
pub use counters::{Counters, ProbeKind, Snapshot};
pub use ctx::TaskCtx;
pub use prober::{
    BatchReply, ProbeLoss, Prober, RetryPolicy, RrProvenance, PROBE_TIMEOUT_MS,
    TRACEROUTE_TIMEOUT_MS,
};
pub use revtr_telemetry::{
    RequestScope, SpanCost, SpanToken, Telemetry, TelemetryConfig, WatchdogFlag,
};
pub use stopset::{
    BackwardEntry, Contribution, Note, StopSet, StopSetBytes, StopSetSnapshot, StoredRr,
};
