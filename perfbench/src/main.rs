//! revtr-perfbench: run one named workload of revtr 2.0 in a fresh
//! process from a seed, check every result, and print the benchmark's
//! metrics.
//!
//! ```text
//! revtr-perfbench --workload <campaign|service-steady|service-flash>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the process repeats untraced (`Telemetry::disabled()`)
//! setup + serve while another repeat fits in `--seconds` (at least
//! [`MIN_REPEATS`] times) and reports the end-to-end metrics. With
//! `--trace 1` it alternates untraced and traced repeats and reports the
//! per-layer metrics. Every repeat builds a fresh system, so set-up is
//! measured each time and caches start cold. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod layers;
mod repeat;
mod speed;
mod trace;

use repeat::{serve_rate, EngineError, Repeat, Timings, Workload};
use serde::{Serialize, Value};
use std::path::Path;
use std::time::{Duration, Instant};
use trace::{median, ratio, Span, Tracer};

/// Fewest untraced repeats of an end-to-end run.
const MIN_REPEATS: usize = 5;
/// Fewest untraced/traced pairs of a per-layer run.
const MIN_TRACED_PAIRS: usize = 2;

const USAGE: &str = "usage: revtr-perfbench --workload <campaign|service-steady|service-flash> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where each run's record goes, relative to the repository root.
const RESULTS_DIR: &str = "perfbench/results";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| bad("not a whole number"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("must be 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The host every timing belongs to.
#[derive(Serialize)]
struct Host {
    nproc: usize,
    cpu: String,
}

impl Host {
    fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("revtr-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    let w = args.workload.name();
    println!(
        "perfbench {w} seed {} trace {} | host: nproc {}, cpu {:?}",
        args.seed, args.trace as u8, host.nproc, host.cpu
    );

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    // The first calibration of a process runs on cold memory; discard it.
    speed::calibrate();
    let mut tr = Tracer::new();
    let (mut untraced, mut traced): (Vec<Repeat>, Vec<Repeat>) = (Vec::new(), Vec::new());
    let mut error: Option<EngineError> = None;
    loop {
        let round = Instant::now();
        let run = untraced.len() + traced.len();
        match repeat::run(args.workload, args.seed, false, false, run, &mut tr) {
            Ok(r) => untraced.push(r),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
        if args.trace {
            let first = traced.is_empty();
            match repeat::run(args.workload, args.seed, true, first, run + 1, &mut tr) {
                Ok(r) => traced.push(r),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        let enough = if args.trace {
            MIN_TRACED_PAIRS
        } else {
            MIN_REPEATS
        };
        // Stop when another round would end past the budget, so a run
        // lasts about `--seconds` whatever the host's speed.
        if untraced.len() >= enough && started.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    for r in untraced.iter().chain(&traced) {
        let t = &r.timings;
        println!(
            "run {:>2} {:<8} setup {:.3} s (sim {:.3}, survey {:.3}, system {:.3}, atlas {:.3}, \
             bind {:.3}) serve {:.3} s  judge {:.3} s  audit {:.3} s  calibration {:.1}/{:.1}/{:.1} ms  \
             fingerprint {:#018x}",
            r.run,
            if r.traced { "traced" } else { "untraced" },
            t.setup_s,
            t.sim_s,
            t.survey_s,
            t.system_s,
            t.atlas_s,
            t.bind_s,
            t.serve_s,
            t.judge_s,
            t.audit_s,
            t.cal_start_s * 1e3,
            t.cal_ready_s * 1e3,
            t.cal_served_s * 1e3,
            r.outcome.fingerprint
        );
    }

    // A repeat that ended in an engine error counts every request it
    // offered as attempted and failed (at least one operation).
    let errored = error.as_ref().map_or(0, |e| e.offered.max(1));
    if let Some(e) = &error {
        println!("engine error: {}", e.msg);
    }
    let Some(base) = untraced.first().map(|r| &r.outcome) else {
        print_result(false, errored.max(1), errored.max(1), &[]);
        return;
    };
    let mut problems: Vec<String> = error
        .iter()
        .map(|e| format!("engine error: {}", e.msg))
        .collect();
    // Determinism: every repeat of one seed, traced or not, must produce
    // the same results and counts bit for bit.
    for r in untraced.iter().chain(&traced).skip(1) {
        if r.outcome != *base {
            problems.push(format!(
                "run {} differs from run {}: {:?} vs {:?}",
                r.run, untraced[0].run, r.outcome, base
            ));
        }
    }
    if traced.len() > 1 && traced.iter().any(|t| t.profile != traced[0].profile) {
        problems.push("traced repeats disagree on ledgers or stage profile".to_string());
    }
    for line in &base.audit_failures {
        println!("audit failure: {line}");
    }

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        if traced.is_empty() {
            problems.push("no traced repeat finished".to_string());
            Vec::new()
        } else {
            layers::per_layer(&untraced, &traced)
        }
    } else {
        end_to_end(&untraced)
    };
    print_report(&untraced, &metrics, errored);
    println!(
        "determinism: {} repeats, {}",
        untraced.len() + traced.len(),
        if problems.is_empty() {
            "results and counts bit-identical"
        } else {
            "MISMATCH"
        }
    );
    for p in &problems {
        println!("check failed: {p}");
    }

    // The operations are the seed's requests. Every repeat replays them
    // and must reproduce them bit for bit (checked above), so each counts
    // once, and the counts do not depend on how many repeats fit in the run.
    let attempted = base.offered + errored;
    let failed = base.failed_ops() + errored;
    let dir = Path::new(RESULTS_DIR);
    if let Err(e) = write_results(dir, &args, host, &untraced, &traced, &metrics, &tr) {
        eprintln!("revtr-perfbench: could not write results: {e}");
    }
    print_result(problems.is_empty(), attempted, failed, &metrics);
}

/// The result line: one JSON object, the last line of standard output.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), metrics_value(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("every metric is a finite number")
    );
}

/// `{"name": {"value": v, "unit": u}, ...}` with every digit of each value.
fn metrics_value(metrics: &[(String, f64, &str)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(n, v, u)| {
                let metric = Value::Object(vec![
                    ("value".to_string(), Value::F64(*v)),
                    ("unit".to_string(), Value::Str(u.to_string())),
                ]);
                (n.clone(), metric)
            })
            .collect(),
    )
}

/// The bounded end-to-end metrics of untraced repeats: set-up time and
/// serve throughput at the reference host's speed (medians over the
/// repeats), and the rest identical in every repeat.
fn end_to_end(untraced: &[Repeat]) -> Vec<(String, f64, &'static str)> {
    let o = &untraced[0].outcome;
    let setup: Vec<f64> = untraced
        .iter()
        .map(|r| r.timings.setup_scaled(r.timings.setup_s))
        .collect();
    [
        ("setup_s", median(&setup), "s"),
        ("revtrs_per_s", serve_rate(untraced), "1/s"),
        ("latency_p50_s", o.latency_p50_s, "s"),
        ("latency_p99_s", o.latency_p99_s, "s"),
        ("coverage", o.coverage(), "ratio"),
        ("accuracy", o.accuracy(), "ratio"),
        ("probes_per_revtr", o.probes_per_revtr(), "probes/revtr"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
    .into_iter()
    .map(|(n, v, u)| (n.to_string(), v, u))
    .collect()
}

/// The metrics with the sample counts and bases behind them, the raw
/// wall-clock figures beside the scaled ones, and the failed share.
fn print_report(untraced: &[Repeat], metrics: &[(String, f64, &str)], errored: u64) {
    let o = &untraced[0].outcome;
    let wall = |f: fn(&Timings) -> f64| {
        median(&untraced.iter().map(|r| f(&r.timings)).collect::<Vec<_>>())
    };
    for (name, value, unit) in metrics {
        let note = match name.as_str() {
            "setup_s" => format!(
                "at reference speed, median of {} set-ups (wall median {:.3} s)",
                untraced.len(),
                wall(|t| t.setup_s)
            ),
            "revtrs_per_s" => format!(
                "{} served / s of serve at reference speed, median of {} (wall {:.1})",
                o.served,
                untraced.len(),
                o.served as f64 / wall(|t| t.serve_s)
            ),
            "latency_p50_s" | "latency_p99_s" => format!("virtual, n = {} served", o.served),
            "coverage" => format!("{} complete / {} offered", o.complete, o.offered),
            "accuracy" => format!("{} AS-sound / {} compared", o.sound, o.compared),
            "probes_per_revtr" => format!(
                "{} option probes / {} offered",
                o.probes.option_probes(),
                o.offered
            ),
            _ => String::new(),
        };
        println!("{name:<40} {value:>16.6} {unit:<12} {note}");
    }
    let audit_failed = o.failed_ops();
    println!(
        "failed share {:.6} ({} shed + {} with audit failures, of {} offered per repeat; \
         {} requests of a repeat that ended in an engine error; shed requests are excluded \
         from the result line's failed count)",
        ratio(o.shed + audit_failed, o.offered),
        o.shed,
        audit_failed,
        o.offered,
        errored
    );
}

/// One repeat in the run's record.
#[derive(Serialize)]
struct RepeatRecord {
    run: usize,
    traced: bool,
    fingerprint: String,
    timings: Timings,
}

/// The deterministic counts of the seed: identical for every repeat.
#[derive(Serialize)]
struct Counts {
    offered: u64,
    served: u64,
    shed: u64,
    complete: u64,
    compared: u64,
    sound: u64,
    option_probes: u64,
    events: u64,
    route_computes: u64,
    survey_probes: u64,
    latency_p50_s: f64,
    latency_p99_s: f64,
}

/// The run's record: host tag, per-repeat timings and fingerprints,
/// counts, audit failures, metrics and every span.
#[derive(Serialize)]
struct Record {
    workload: &'static str,
    seed: u64,
    trace: u8,
    host: Host,
    repeats: Vec<RepeatRecord>,
    counts: Counts,
    audit_failures: Vec<String>,
    metrics: Value,
    spans: Vec<Span>,
}

fn write_results(
    dir: &Path,
    args: &Args,
    host: Host,
    untraced: &[Repeat],
    traced: &[Repeat],
    metrics: &[(String, f64, &str)],
    tr: &Tracer,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let o = &untraced[0].outcome;
    let record = Record {
        workload: args.workload.name(),
        seed: args.seed,
        trace: args.trace as u8,
        host,
        repeats: untraced
            .iter()
            .chain(traced)
            .map(|r| RepeatRecord {
                run: r.run,
                traced: r.traced,
                fingerprint: format!("{:#018x}", r.outcome.fingerprint),
                timings: r.timings,
            })
            .collect(),
        counts: Counts {
            offered: o.offered,
            served: o.served,
            shed: o.shed,
            complete: o.complete,
            compared: o.compared,
            sound: o.sound,
            option_probes: o.probes.option_probes(),
            events: o.events,
            route_computes: o.route_computes,
            survey_probes: o.survey_probes,
            latency_p50_s: o.latency_p50_s,
            latency_p99_s: o.latency_p99_s,
        },
        audit_failures: o.audit_failures.clone(),
        metrics: metrics_value(metrics),
        spans: tr.spans().to_vec(),
    };
    let json = serde_json::to_string(&record).map_err(std::io::Error::other)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    std::fs::write(path, json + "\n")
}
