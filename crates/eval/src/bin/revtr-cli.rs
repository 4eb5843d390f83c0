//! `revtr-cli` — drive the reverse traceroute reproduction from the shell.
//!
//! ```text
//! revtr-cli topology  [--era tiny|2016|2020] [--seed N]
//! revtr-cli measure   [--era ...] [--seed N] [--engine 1|2] [--dst A.B.C.D|auto] [--src A.B.C.D|auto]
//! revtr-cli reproduce [--scale smoke|standard] [--out DIR]
//! revtr-cli robustness [--scale smoke|standard] [--out DIR]
//! revtr-cli audit     [--scale smoke|standard] [--seed N] [--out DIR] [--stop-sets on|off]
//! revtr-cli metrics   [--scale smoke|standard] [--seed N] [--out DIR]
//! revtr-cli profile   [--scale smoke|standard] [--seed N] [--out DIR]
//! revtr-cli monitor   [--scale ...] [--seed N] [--out DIR] [--loss P] [--budget N] [--deadline-ms MS]
//!                     [--scenario PROFILE] [--severity F] [--harden on|off]
//! revtr-cli scenario  [--scale smoke|standard] [--seed N] [--profile NAME|all] [--severity F] [--out DIR]
//! revtr-cli bench-report  [--scale ...] [--seed N] [--file PATH] [--stop-sets on|off]
//! revtr-cli bench-compare OLD.json NEW.json [--tol F] [--tol-quality F]
//! revtr-cli economy   [--scale smoke|standard] [--seed N] [--min-cut F] [--tol-quality F]
//! revtr-cli engine-ab [--scale smoke|standard] [--seed N] [--workers N]
//! revtr-cli concurrency-smoke [--inflight N] [--seed N]
//! revtr-cli loadtest  [--scale smoke|standard] [--seed N] [--pattern steady|diurnal|flash-crowd|scan]
//!                     [--duration H] [--out DIR]
//! ```
//!
//! Every subcommand validates its flags against an allow-list
//! ([`revtr_eval::cliargs`]); unknown flags are a usage error (exit 2)
//! rather than being silently ignored. `monitor` exits non-zero when any
//! SLO rule fires; `bench-compare` exits non-zero past tolerance — both
//! are usable directly as CI gates.

use revtr::{EngineConfig, HopMethod, RevtrSystem};
use revtr_atlas::select_atlas_probes;
use revtr_eval::cliargs::{self, Flags};
use revtr_eval::{
    audit, bench_report, economy, loadtest, metrics, monitor, profile, reproduce, robustness,
    scenarios, CampaignSpec, Scale,
};
use revtr_netsim::{Addr, AsTier, ScenarioConfig, ScenarioProfile, Sim};
use revtr_probing::Prober;
use revtr_vpselect::{Heuristics, IngressDb};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  revtr-cli topology  [--era tiny|2016|2020] [--seed N]\n  \
         revtr-cli measure   [--era ...] [--seed N] [--engine 1|2] [--dst ADDR|auto] [--src ADDR|auto]\n  \
         revtr-cli reproduce [--scale smoke|standard] [--out DIR]\n  \
         revtr-cli robustness [--scale smoke|standard] [--out DIR]\n  \
         revtr-cli audit     [--scale smoke|standard] [--seed N] [--out DIR] [--stop-sets on|off]\n  \
         revtr-cli metrics   [--scale smoke|standard] [--seed N] [--out DIR]\n  \
         revtr-cli profile   [--scale smoke|standard] [--seed N] [--out DIR]\n  \
         revtr-cli monitor   [--scale smoke|standard] [--seed N] [--out DIR] [--loss P] [--budget N] [--deadline-ms MS]\n  \
                     [--scenario PROFILE] [--severity F] [--harden on|off]\n  \
         revtr-cli scenario  [--scale smoke|standard] [--seed N] [--profile NAME|all] [--severity F] [--out DIR]\n  \
         revtr-cli bench-report  [--scale smoke|standard] [--seed N] [--file PATH] [--stop-sets on|off]\n  \
         revtr-cli bench-compare OLD.json NEW.json [--tol F] [--tol-quality F]\n  \
         revtr-cli economy   [--scale smoke|standard] [--seed N] [--min-cut F] [--tol-quality F]\n  \
         revtr-cli engine-ab [--scale smoke|standard] [--seed N] [--workers N]\n  \
         revtr-cli concurrency-smoke [--inflight N] [--seed N]\n  \
         revtr-cli loadtest  [--scale smoke|standard] [--seed N] [--pattern steady|diurnal|flash-crowd|scan] [--duration H] [--out DIR]"
    );
    ExitCode::from(2)
}

/// Report a flag-validation error the usage way: message plus exit 2.
fn flag_err(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    usage()
}

fn build_sim(flags: &Flags) -> Result<Sim, String> {
    let cfg = flags.era()?;
    let seed = flags.seed()?.unwrap_or(1);
    Ok(Sim::build(cfg, seed))
}

fn parse_addr(s: &str) -> Option<Addr> {
    let parts: Vec<u8> = s
        .split('.')
        .map(|p| p.parse().ok())
        .collect::<Option<Vec<u8>>>()?;
    if parts.len() != 4 {
        return None;
    }
    Some(Addr::new(parts[0], parts[1], parts[2], parts[3]))
}

fn cmd_topology(flags: &Flags) -> ExitCode {
    let sim = match build_sim(flags) {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let topo = sim.topo();
    println!("{sim:?}");
    let mut by_tier: HashMap<&str, usize> = HashMap::new();
    for a in &topo.ases {
        *by_tier
            .entry(match a.tier {
                AsTier::Tier1 => "tier1",
                AsTier::Transit => "transit",
                AsTier::Stub => "stub",
                AsTier::Nren => "nren",
            })
            .or_insert(0) += 1;
    }
    println!("ASes by tier: {by_tier:?}");
    println!(
        "colo ASes: {}  edu stubs: {}  MPLS backbones: {}",
        topo.ases.iter().filter(|a| a.colo).count(),
        topo.ases.iter().filter(|a| a.edu).count(),
        topo.ases.iter().filter(|a| a.mpls).count(),
    );
    println!(
        "VP sites: {} ({} legacy-2016)",
        topo.vp_sites.len(),
        topo.vp_sites.iter().filter(|v| v.legacy_2016).count()
    );
    ExitCode::SUCCESS
}

fn cmd_measure(flags: &Flags) -> ExitCode {
    let sim = match build_sim(flags) {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let src = match flags.get("src").unwrap_or("auto") {
        "auto" => vps[0],
        s => match parse_addr(s) {
            Some(a) => a,
            None => return flag_err("bad --src address"),
        },
    };
    let dst = match flags.get("dst").unwrap_or("auto") {
        "auto" => {
            let Some(d) = sim.topo().prefixes.iter().find_map(|pe| {
                sim.host_addrs(pe.id)
                    .find(|&a| sim.behavior().host_rr_responsive(a) && a != src)
            }) else {
                eprintln!("no responsive destination found");
                return ExitCode::FAILURE;
            };
            d
        }
        s => match parse_addr(s) {
            Some(a) => a,
            None => return flag_err("bad --dst address"),
        },
    };

    eprintln!("building background services (ingress DB, atlas pool)...");
    let prober = Prober::new(&sim);
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(&sim, 200, 7);
    let mut cfg = match flags.get("engine").unwrap_or("2") {
        "1" => EngineConfig::revtr1(),
        "2" => EngineConfig::revtr2(),
        other => return flag_err(&format!("unknown engine {other:?} (use 1 or 2)")),
    };
    cfg.atlas_size = 100;
    let system = RevtrSystem::new(prober, cfg, vps, ingress, pool);

    println!("reverse traceroute from {dst} back to {src}:");
    let r = system.measure(dst, src);
    for (i, hop) in r.hops.iter().enumerate() {
        let addr = hop
            .addr
            .map(|a| a.to_string())
            .unwrap_or_else(|| "*".to_string());
        let how = match hop.method {
            HopMethod::Destination => "destination",
            HopMethod::AtlasIntersection => "atlas",
            HopMethod::RecordRoute => "rr",
            HopMethod::SpoofedRecordRoute => "spoofed-rr",
            HopMethod::Timestamp => "ts",
            HopMethod::AssumedSymmetric => "assumed-symmetric",
        };
        let star = if hop.suspicious_gap_before {
            " [*]"
        } else {
            ""
        };
        println!("  {i:2}  {addr:<16} {how}{star}");
    }
    println!(
        "status: {:?}  probes: {} option pkts  batches: {}  {:.1}s virtual",
        r.status,
        r.stats.probes.option_probes(),
        r.stats.batches,
        r.stats.duration_s
    );
    ExitCode::SUCCESS
}

fn cmd_reproduce(flags: &Flags) -> ExitCode {
    let scale = match flags.scale() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let rep = reproduce::run(scale.eval_scale(1));
    println!("{}", rep.render());
    if let Some(dir) = flags.out_dir() {
        match rep.save_tsvs(dir) {
            Ok(()) => eprintln!("TSVs written to {}", dir.display()),
            Err(e) => {
                eprintln!("could not write TSVs: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_robustness(flags: &Flags) -> ExitCode {
    let report = match flags.scale() {
        Ok(Scale::Smoke) => robustness::smoke(),
        Ok(Scale::Standard) => robustness::standard(),
        Err(e) => return flag_err(&e),
    };
    println!("{}", report.table().render());
    println!("{}", report.figure().render());
    if let Some(dir) = flags.out_dir() {
        let saved = report
            .table()
            .save_tsv(dir, "robustness")
            .and_then(|()| report.figure().save_tsv(dir, "robustness_coverage"));
        match saved {
            Ok(()) => eprintln!("TSVs written to {}", dir.display()),
            Err(e) => {
                eprintln!("could not write TSVs: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_audit(flags: &Flags) -> ExitCode {
    let seed = match flags.seed() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let stop_sets = match flags.stop_sets() {
        Ok(b) => b,
        Err(e) => return flag_err(&e),
    };
    let mut spec = match flags.scale() {
        Ok(scale) => CampaignSpec::new(scale, seed.unwrap_or(1)),
        Err(e) => return flag_err(&e),
    };
    spec.engine.use_stop_sets = stop_sets;
    let report = audit::run(&spec);
    if let Some(s) = seed {
        println!("(master seed {s})");
    }
    if stop_sets {
        println!("(stop sets on: reused-evidence soundness arm)");
    }
    println!("{}", report.table().render());
    println!(
        "audited {} measurements, {} with failing verdicts",
        report.summary.results, report.summary.dirty_results
    );
    if let Some(dir) = flags.out_dir() {
        match report.table().save_tsv(dir, "audit") {
            Ok(()) => eprintln!("TSV written to {}", dir.display()),
            Err(e) => {
                eprintln!("could not write TSV: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.is_clean() {
        println!("audit gate: PASS (0 unsound, 0 policy violations)");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "audit gate: FAIL ({} unsound, {} policy violations)",
            report.summary.total_unsound(),
            report.summary.total_policy_violations()
        );
        for f in &report.failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}

fn cmd_metrics(flags: &Flags) -> ExitCode {
    let seed = match flags.seed() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let report = match flags.scale() {
        Ok(scale) => metrics::run(scale, seed.unwrap_or(1)),
        Err(e) => return flag_err(&e),
    };
    if let Some(s) = seed {
        println!("(master seed {s})");
    }
    println!("{}", report.render());
    if let Some(dir) = flags.out_dir() {
        match report.save_tsvs(dir) {
            Ok(()) => eprintln!("TSVs written to {}", dir.display()),
            Err(e) => {
                eprintln!("could not write TSVs: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_profile(flags: &Flags) -> ExitCode {
    let seed = match flags.seed() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let scale = match flags.scale() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let report = profile::run(scale, seed.unwrap_or(1));
    println!("{}", report.render());
    if let Some(dir) = flags.out_dir() {
        match report.save_exports(dir) {
            Ok(paths) => {
                let shown: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
                eprintln!("exports: {}", shown.join("  "));
            }
            Err(e) => {
                eprintln!("could not write exports: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_monitor(flags: &Flags) -> ExitCode {
    let seed = match flags.seed() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let scale = match flags.scale() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let loss = match flags.get("loss").unwrap_or("0").parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => p,
        _ => return flag_err("--loss must be a probability in [0, 1]"),
    };
    let budget = match flags.get("budget").unwrap_or("1").parse::<u32>() {
        Ok(b) if b >= 1 => b,
        _ => return flag_err("--budget must be a positive integer"),
    };
    let mut spec = monitor::faulted(scale, seed.unwrap_or(1), loss, budget);
    if let Some(name) = flags.get("scenario") {
        let Some(profile) = ScenarioProfile::from_name(name) else {
            return flag_err(&format!(
                "unknown scenario profile {name:?} (one of: {})",
                ScenarioProfile::ALL.map(|p| p.name()).join(", ")
            ));
        };
        let severity = match parse_severity(flags) {
            Ok(s) => s.unwrap_or_else(|| profile.default_severity()),
            Err(code) => return code,
        };
        spec = monitor::with_scenario(spec, ScenarioConfig::profile_at(profile, severity));
    } else if flags.get("severity").is_some() {
        return flag_err("--severity requires --scenario");
    }
    match flags.get("harden").unwrap_or("off") {
        "on" => spec.engine.harden = true,
        "off" => {}
        other => return flag_err(&format!("--harden must be on or off, got {other:?}")),
    }
    if let Some(ms) = flags.get("deadline-ms") {
        match ms.parse::<f64>() {
            Ok(v) if v > 0.0 => {
                if let Some(t) = spec.telemetry.as_mut() {
                    t.watchdog_deadline_ms = Some(v);
                }
            }
            _ => return flag_err("--deadline-ms must be a positive number"),
        }
    }
    let report = monitor::run(&spec);
    if let Some(s) = seed {
        println!("(master seed {s})");
    }
    println!("{}", report.render());
    if let Some(dir) = flags.out_dir() {
        match report.save_exports(dir) {
            Ok((trace, prom)) => {
                eprintln!("exports: {}  {}", trace.display(), prom.display())
            }
            Err(e) => {
                eprintln!("could not write exports: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse the shared `--severity` flag (a fraction in [0, 1]); `Ok(None)`
/// when absent so callers can fall back to the profile default.
fn parse_severity(flags: &Flags) -> Result<Option<f64>, ExitCode> {
    match flags.get("severity") {
        None => Ok(None),
        Some(s) => match s.parse::<f64>() {
            Ok(v) if (0.0..=1.0).contains(&v) => Ok(Some(v)),
            _ => Err(flag_err("--severity must be a fraction in [0, 1]")),
        },
    }
}

fn cmd_scenario(flags: &Flags) -> ExitCode {
    let seed = match flags.seed() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let scale = match flags.scale() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let profiles: Vec<ScenarioProfile> = match flags.get("profile").unwrap_or("all") {
        "all" => ScenarioProfile::ALL.to_vec(),
        name => match ScenarioProfile::from_name(name) {
            Some(p) => vec![p],
            None => {
                return flag_err(&format!(
                    "unknown scenario profile {name:?} (one of: all, {})",
                    ScenarioProfile::ALL.map(|p| p.name()).join(", ")
                ))
            }
        },
    };
    let severity = match parse_severity(flags) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let report = scenarios::run(scale, seed.unwrap_or(1), &profiles, severity);
    if let Some(s) = seed {
        println!("(master seed {s})");
    }
    println!("{}", report.render());
    if let Some(dir) = flags.out_dir() {
        match report.table().save_tsv(dir, "scenarios") {
            Ok(()) => eprintln!("TSV written to {}", dir.display()),
            Err(e) => {
                eprintln!("could not write TSV: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_bench_report(flags: &Flags) -> ExitCode {
    let seed = match flags.seed() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let scale = match flags.scale() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let stop_sets = match flags.stop_sets() {
        Ok(b) => b,
        Err(e) => return flag_err(&e),
    };
    let report = bench_report::run(scale, seed.unwrap_or(1), stop_sets);
    let json = report.to_json();
    match flags.get("file") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("bench report written to {path}");
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}

fn cmd_bench_compare(old_path: &str, new_path: &str, flags: &Flags) -> ExitCode {
    let tol = match flags.get("tol").unwrap_or("0.10").parse::<f64>() {
        Ok(t) if t >= 0.0 => t,
        _ => return flag_err("--tol must be a non-negative number"),
    };
    let tol_quality = match flags.get("tol-quality").unwrap_or("0.02").parse::<f64>() {
        Ok(t) if t >= 0.0 => t,
        _ => return flag_err("--tol-quality must be a non-negative number"),
    };
    let load = |path: &str| -> Result<bench_report::BenchReport, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        bench_report::BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cmp = bench_report::compare(&old, &new, tol, tol_quality);
    println!("{}", cmp.render());
    if cmp.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_economy(flags: &Flags) -> ExitCode {
    let seed = match flags.seed() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let scale = match flags.scale() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let min_cut = match flags
        .get("min-cut")
        .map(str::parse::<f64>)
        .unwrap_or(Ok(economy::DEFAULT_MIN_CUT))
    {
        Ok(f) if (0.0..1.0).contains(&f) => f,
        _ => return flag_err("--min-cut must be a fraction in [0, 1)"),
    };
    let tol_quality = match flags
        .get("tol-quality")
        .map(str::parse::<f64>)
        .unwrap_or(Ok(economy::DEFAULT_TOL_QUALITY))
    {
        Ok(f) if f >= 0.0 => f,
        _ => return flag_err("--tol-quality must be a non-negative number"),
    };
    let report = economy::run(scale, seed.unwrap_or(1), min_cut, tol_quality);
    println!("{}", report.render());
    if report.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_engine_ab(flags: &Flags) -> ExitCode {
    use revtr_eval::throughput;
    let seed = match flags.seed() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let scale = match flags.scale() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let workers = match flags.get("workers").unwrap_or("8").parse::<usize>() {
        Ok(w) if w >= 1 => w,
        _ => return flag_err("--workers must be a positive integer"),
    };
    let spec = CampaignSpec::new(scale, seed.unwrap_or(1));
    let ctx = spec.context();
    let campaign = spec.assemble(&ctx);
    // Tile the workload x4: at the base campaign's ~0.15 s wall a single
    // scheduler hiccup on a shared CI host is a 30% swing, drowning the
    // engines' real gap; at ~0.6 s per arm the noise amortizes while the
    // cache/route counters keep the same shape (repeats hit the
    // measurement cache in both arms alike).
    let base = ctx.workload();
    let workload: Vec<_> = base.iter().copied().cycle().take(base.len() * 4).collect();
    let ab = throughput::engine_ab(&ctx, &campaign.ingress, &workload, workers);
    let report = throughput::ThroughputReport {
        runs: vec![ab.threads, ab.events],
    };
    println!("{}", report.table().render());
    // The gate the event-driven refactor must hold: at matching
    // parallelism, the event loop is no slower than the thread pool it
    // replaced. The judged statistic is the median *paired* wall ratio
    // (see `engine_ab`) against the shared noise allowance.
    let pass = ab.wall_ratio <= throughput::AB_NOISE_ALLOWANCE;
    println!(
        "engine-ab gate ({} revtrs, w/q {}): {} (median events/threads wall ratio {:.3} \
         over {} paired trials, 5% allowance; best events {:.2} s vs threads {:.2} s)",
        workload.len(),
        workers,
        if pass { "PASS" } else { "FAIL" },
        ab.wall_ratio,
        ab.trials,
        ab.events.wall_s,
        ab.threads.wall_s
    );
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_loadtest(flags: &Flags) -> ExitCode {
    let seed = match flags.seed() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let scale = match flags.scale() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let name = flags.get("pattern").unwrap_or("steady");
    let Some(pattern) = loadtest::Pattern::from_name(name) else {
        return flag_err(&format!(
            "unknown traffic pattern {name:?} (one of: {})",
            loadtest::Pattern::ALL.map(|p| p.name()).join(", ")
        ));
    };
    let mut cfg = loadtest::LoadtestConfig::new(pattern);
    if let Some(d) = flags.get("duration") {
        match d.parse::<f64>() {
            Ok(v) if v > 0.0 && v.is_finite() => cfg.duration_hours = v,
            _ => return flag_err("--duration must be a positive number of virtual hours"),
        }
    }
    let report = loadtest::run(scale, seed.unwrap_or(1), &cfg);
    if let Some(s) = seed {
        println!("(master seed {s})");
    }
    println!("{}", report.render());
    if let Some(dir) = flags.out_dir() {
        match report.save_exports(dir) {
            Ok(paths) => {
                let shown: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
                eprintln!("exports: {}", shown.join("  "));
            }
            Err(e) => {
                eprintln!("could not write exports: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_concurrency_smoke(flags: &Flags) -> ExitCode {
    let seed = match flags.seed() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let target = match flags.get("inflight").unwrap_or("50000").parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => return flag_err("--inflight must be a positive integer"),
    };
    let smoke = revtr_eval::concurrency::run(target, seed.unwrap_or(1));
    println!("{}", smoke.render(target));
    if smoke.pass(target) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The flags each subcommand accepts; anything else is a usage error.
fn allowed_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "topology" => &["era", "seed"],
        "measure" => &["era", "seed", "engine", "dst", "src"],
        "reproduce" => &["scale", "out"],
        "robustness" => &["scale", "out"],
        "audit" => &["scale", "seed", "out", "stop-sets"],
        "metrics" => &["scale", "seed", "out"],
        "profile" => &["scale", "seed", "out"],
        "monitor" => &[
            "scale",
            "seed",
            "out",
            "loss",
            "budget",
            "deadline-ms",
            "scenario",
            "severity",
            "harden",
        ],
        "scenario" => &["scale", "seed", "profile", "severity", "out"],
        "bench-report" => &["scale", "seed", "file", "stop-sets"],
        "bench-compare" => &["tol", "tol-quality"],
        "economy" => &["scale", "seed", "min-cut", "tol-quality"],
        "engine-ab" => &["scale", "seed", "workers"],
        "concurrency-smoke" => &["inflight", "seed"],
        "loadtest" => &["scale", "seed", "pattern", "duration", "out"],
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(allowed) = allowed_flags(cmd) else {
        return usage();
    };
    // `bench-compare` takes its two report paths positionally (before any
    // flags); everything else is pure `--flag value`.
    let (positionals, rest) = if cmd == "bench-compare" {
        let n = rest
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .take(2)
            .count();
        rest.split_at(n)
    } else {
        rest.split_at(0)
    };
    let flags = match cliargs::parse(rest, allowed) {
        Ok(f) => f,
        Err(e) => return flag_err(&e),
    };
    match cmd.as_str() {
        "topology" => cmd_topology(&flags),
        "measure" => cmd_measure(&flags),
        "reproduce" => cmd_reproduce(&flags),
        "robustness" => cmd_robustness(&flags),
        "audit" => cmd_audit(&flags),
        "metrics" => cmd_metrics(&flags),
        "profile" => cmd_profile(&flags),
        "monitor" => cmd_monitor(&flags),
        "scenario" => cmd_scenario(&flags),
        "bench-report" => cmd_bench_report(&flags),
        "economy" => cmd_economy(&flags),
        "engine-ab" => cmd_engine_ab(&flags),
        "concurrency-smoke" => cmd_concurrency_smoke(&flags),
        "loadtest" => cmd_loadtest(&flags),
        "bench-compare" => match positionals {
            [old, new] => cmd_bench_compare(old, new, &flags),
            _ => flag_err("bench-compare needs two positional report paths: OLD.json NEW.json"),
        },
        _ => usage(),
    }
}
