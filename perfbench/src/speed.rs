//! Host speed: a fixed piece of work timed next to every set-up and
//! serve, so that their wall times can be scaled to one reference speed.
//!
//! On a shared virtual machine the same set-up takes 1.9 s in one minute
//! and 3.4 s in another, in phases of tens of seconds to minutes. The
//! process's CPU time grows with its wall time (the thread is not kept
//! waiting; it runs slower), so neither CPU time nor the fastest repeat
//! of a run hides such a phase. A register-only loop keeps its speed
//! through it while hash-map lookups slow down with the set-up: the phases
//! are contention for the memory system. So the calibration is hash-map
//! work that never changes, timed right before and right after each call;
//! dividing by it leaves the work of the call.

use crate::trace::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Wall seconds one [`work`] takes on the reference host (a 2-vCPU Intel
/// Xeon virtual machine in a quiet phase). Scaled times are seconds at
/// that speed.
pub const REFERENCE_S: f64 = 0.010;

/// Keys of the calibration map.
const KEYS: u64 = 16_000;
/// Lookups of every key per run.
const PASSES: usize = 50;
/// Runs of [`work`] per calibration point; the median is kept.
const RUNS: usize = 9;

/// Work shaped like the simulator's: building a hash map and looking up
/// every key many times. Its table (about 0.5 MB) outgrows the per-core
/// caches but not the shared one, where the contention shows.
fn work() -> f64 {
    let t = Instant::now();
    let next = |x: u64| {
        x.wrapping_mul(0x5851_f42d_4c95_7f2d)
            .wrapping_add(0x1405_7b7e_f767_814f)
    };
    let mut map = HashMap::new();
    let mut x = 1;
    for i in 0..KEYS {
        x = next(x);
        map.insert(x >> 11, i);
    }
    let mut sum = 0u64;
    for _ in 0..PASSES {
        x = 1;
        for _ in 0..KEYS {
            x = next(x);
            sum = sum.wrapping_add(map[&(x >> 11)]);
        }
    }
    black_box(sum);
    t.elapsed().as_secs_f64()
}

/// The host's speed now: wall seconds of the calibration work, median of
/// [`RUNS`] runs.
pub fn calibrate() -> f64 {
    median(&(0..RUNS).map(|_| work()).collect::<Vec<_>>())
}

/// `wall_s` scaled to the reference host's speed, for a call bracketed by
/// calibrations that took `before_s` and `after_s`.
pub fn scaled(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s * REFERENCE_S / ((before_s + after_s) / 2.0)
}
