//! The benchmark's parent process, and the untraced child process it
//! measures.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selftest [--seed <n>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics; the last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`, and the line before
//! it stamps the host and the run. Every measurement runs in a child
//! process of its own (`--role run`, or the traced binary's
//! `--role traced`), so a timed run's peak RSS is its own process's
//! VmHWM and no sampler thread runs beside it.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use perfbench::record::{json_num, json_obj, json_str, Record};
use perfbench::{
    check_run, digest, draw, median, peak_rss_mb, simulate_protean, strict_slo_ms, sub_seed, Args,
    Arm, Drawn, Pool, SimMetrics, Workload, END_TO_END, PER_LAYER, REQ_PER_S_BOUND, WORKLOADS,
};

/// Timed processes per benchmark run, at most. Each runs all of the
/// workload's simulations; a further one runs only if it fits in
/// `--seconds`.
const MAX_TIMED_PROCESSES: usize = 3;

fn main() {
    let args = Args::from_env();
    let outcome = match args.value("--role") {
        Some("run") => child_run(&args),
        Some(role) => Err(format!("unknown role {role:?}")),
        None if args.has("--selftest") => selftest(&args),
        None => bench(&args),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

// ---- child roles ------------------------------------------------------

/// One timed, untraced run: one simulation per trace count the parent
/// passed, each checked against its count, with the simulated metrics
/// of all of them pooled. Right before each simulation, the process
/// times set-ups of the same configuration over a near-empty trace
/// (fleet build, VM provisioning, index build, result assembly), so
/// both are measured under the same host conditions.
fn child_run(args: &Args) -> Result<bool, String> {
    let (workload, seed, arm) = args.cell()?;
    let trace = workload.trace();
    let setup_trace = workload.setup_trace();
    let mut pool = Pool::default();
    let mut rec = Record::new();
    let mut slo_ms = 0.0;
    for (i, drawn) in args.drawn()?.iter().enumerate() {
        let config = workload.config(sub_seed(seed, i), arm);
        slo_ms = strict_slo_ms(&config, &trace);
        let mut setups = Vec::new();
        for _ in 0..args.parsed("--setups", workload.setups_per_sim)? {
            let t0 = Instant::now();
            std::hint::black_box(simulate_protean(&config, &setup_trace));
            setups.push(t0.elapsed().as_secs_f64());
            rec.put("setup_s", setups[setups.len() - 1]);
        }
        let t0 = Instant::now();
        let result = simulate_protean(&config, &trace);
        let wall_s = t0.elapsed().as_secs_f64();
        rec.put("wall_s", wall_s);
        if !setups.is_empty() {
            let served = drawn.total - result.censored;
            rec.put("rate", served as f64 / (wall_s - median(&setups)));
        }
        let sim = SimMetrics::of(&Pool::of(&result, drawn.total), slo_ms);
        rec.put("digest", digest(&result, &sim));
        for e in check_run(drawn, &sim, &result, &config) {
            rec.put("error", format!("simulation {i}: {e}"));
        }
        pool.add(&result, drawn.total);
    }
    rec.put("peak_mem_mb", peak_rss_mb());
    let sim = SimMetrics::of(&pool, slo_ms);
    rec.put("recorded", sim.recorded);
    rec.put("censored", sim.censored);
    for (name, v) in sim.named() {
        rec.put(name, v);
    }
    rec.print();
    Ok(true)
}

// ---- parent process ----------------------------------------------------

/// Spawns `exe` in `role` for one cell and parses its record.
fn child(
    exe: &Path,
    role: &str,
    workload: &Workload,
    seed: u64,
    arm: Arm,
    drawn: &[Drawn],
    setups: usize,
) -> Result<Record, String> {
    let list = |f: fn(&Drawn) -> u64| {
        let v: Vec<String> = drawn.iter().map(|d| f(d).to_string()).collect();
        v.join(",")
    };
    let out = Command::new(exe)
        .args([
            "--role",
            role,
            "--workload",
            workload.name,
            "--arm",
            arm.name(),
        ])
        .args(["--seed", &seed.to_string()])
        .args(["--total", &list(|d| d.total)])
        .args(["--measured", &list(|d| d.measured)])
        .args(["--setups", &setups.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{role} child for {} failed: {}",
            workload.name, out.status
        ));
    }
    Ok(Record::parse(&String::from_utf8_lossy(&out.stdout)))
}

fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe
        .parent()
        .expect("executable has a directory")
        .to_path_buf())
}

/// Draws the traces of a timed run's first `sims` simulations.
fn draw_all(workload: &Workload, seed: u64, sims: usize) -> Vec<Drawn> {
    let trace = workload.trace();
    (0..sims)
        .map(|i| draw(&workload.config(sub_seed(seed, i), Arm::Base), &trace))
        .collect()
}

/// The numbers a record holds under `key`.
fn nums(run: &Record, key: &str) -> Vec<f64> {
    run.all(key)
        .iter()
        .map(|v| v.parse().unwrap_or(f64::NAN))
        .collect()
}

/// A run's check failures, plus any digest that differs from
/// `reference`'s.
fn run_errors(run: &Record, reference: &Record, what: &str) -> Vec<String> {
    let mut errors: Vec<String> = run
        .all("error")
        .iter()
        .map(|e| format!("{what}: {e}"))
        .collect();
    let (digests, expected) = (run.all("digest"), reference.all("digest"));
    for (i, (d, e)) in digests.iter().zip(&expected).enumerate() {
        if d != e {
            errors.push(format!(
                "{what}: simulation {i} digest {d:?} differs from {e:?}"
            ));
        }
    }
    if digests.len() > expected.len() || digests.is_empty() {
        errors.push(format!(
            "{what}: {} digests, reference has {}",
            digests.len(),
            expected.len()
        ));
    }
    errors
}

fn json_list(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|x| json_num(*x)).collect();
    format!("[{}]", v.join(", "))
}

struct Outcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn bench(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", 10.0)?;
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let dir = exe_dir()?;

    let mut stamp = vec![
        ("workload", json_str(workload.name)),
        ("seed", seed.to_string()),
        ("nproc", host_parallelism().to_string()),
        (
            "commit",
            json_str(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        ("workers", workload.workers.to_string()),
        ("shards", workload.shards.to_string()),
        ("shard_threads", workload.shard_threads.to_string()),
        ("sim_secs", json_num(workload.sim_secs)),
        ("warmup_secs", json_num(workload.warmup_secs)),
        // Arrivals come from the seeded trace in simulated time, so the
        // open-loop generator is never late.
        ("generator_late_s", "0".to_string()),
    ];
    let outcome = if traced {
        layer_trace(&dir, workload, seed, &mut stamp)?
    } else {
        end_to_end(&dir, workload, seed, seconds, &mut stamp)?
    };

    println!("{}", json_obj(&[("stamp", json_obj(&stamp))]));
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let mut errors = outcome.errors.len();
    let metrics: Vec<(&str, String)> = outcome
        .metrics
        .iter()
        .map(|&(name, unit, v)| {
            let v = if v.is_finite() {
                v
            } else {
                eprintln!("perfbench: check failed: {name} is {v}");
                errors += 1;
                0.0
            };
            (
                name,
                json_obj(&[("value", json_num(v)), ("unit", json_str(unit))]),
            )
        })
        .collect();
    let correct = errors == 0;
    println!(
        "{}",
        json_obj(&[
            ("correct", correct.to_string()),
            ("attempted", outcome.attempted.to_string()),
            ("failed", outcome.failed.to_string()),
            ("metrics", json_obj(&metrics)),
        ])
    );
    Ok(correct)
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `--trace 0`: set-up runs, then timed runs of the workload's
/// simulations until `seconds` have passed. Host metrics are medians;
/// simulated metrics come from the first timed run, and every further
/// run must reproduce its digests.
fn end_to_end(
    dir: &Path,
    workload: &Workload,
    seed: u64,
    seconds: f64,
    stamp: &mut Vec<(&str, String)>,
) -> Result<Outcome, String> {
    let exe = dir.join("perfbench");
    let drawn = draw_all(workload, seed, workload.sims);
    let clock = Instant::now();
    let mut runs = Vec::new();
    // Another process only if a whole one still fits in `seconds`.
    while runs.is_empty()
        || (clock.elapsed().as_secs_f64() * (runs.len() + 1) as f64 / runs.len() as f64 <= seconds
            && runs.len() < MAX_TIMED_PROCESSES)
    {
        runs.push(child(
            &exe,
            "run",
            workload,
            seed,
            Arm::Base,
            &drawn,
            workload.setups_per_sim,
        )?);
    }
    let first = &runs[0];
    let mut errors = Vec::new();
    let (mut setups, mut rate_samples) = (Vec::new(), Vec::new());
    for (i, run) in runs.iter().enumerate() {
        errors.extend(run_errors(run, first, &format!("timed run {i}")));
        setups.extend(nums(run, "setup_s"));
        rate_samples.extend(nums(run, "rate"));
    }
    if rate_samples.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
        errors.push("a simulation took no longer than its set-up".into());
    }
    let setup_s = median(&setups);
    let peaks: Vec<f64> = runs.iter().map(|r| r.num("peak_mem_mb")).collect();
    stamp.push(("sims_per_run", workload.sims.to_string()));
    stamp.push(("timed_runs", runs.len().to_string()));
    stamp.push((
        "trace_requests",
        json_list(&drawn.iter().map(|d| d.total as f64).collect::<Vec<_>>()),
    ));
    stamp.push(("setup_s_samples", json_list(&setups)));
    stamp.push(("req_per_s_samples", json_list(&rate_samples)));
    stamp.push(("peak_mem_mb_runs", json_list(&peaks)));

    let host = [
        ("req_per_s", median(&rate_samples)),
        ("setup_s", setup_s),
        ("peak_mem_mb", median(&peaks)),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = host
                .iter()
                .find(|(n, _)| *n == name)
                .map_or_else(|| first.num(name), |(_, v)| *v);
            (name, unit, v)
        })
        .collect();
    Ok(Outcome {
        errors,
        attempted: runs.iter().map(|r| r.count("recorded")).sum(),
        failed: runs.iter().map(|r| r.count("censored")).sum(),
        metrics,
    })
}

/// `--trace 1`: the first simulation of the timed run, once untraced as
/// the reference and once in the traced binary. Per-layer metrics come
/// from the traced run's probes and counters; spans from both processes.
fn layer_trace(
    dir: &Path,
    workload: &Workload,
    seed: u64,
    stamp: &mut Vec<(&str, String)>,
) -> Result<Outcome, String> {
    let clock = Instant::now();
    let drawn = draw_all(workload, seed, 1);
    let draw_s = clock.elapsed().as_secs_f64();
    let mut spans = vec![span("draw", None, 0.0, draw_s)];
    let mut timed = |name: &'static str, exe: &str, role: &str| {
        let t = clock.elapsed().as_secs_f64();
        // No set-ups: both processes time the simulation alone (the
        // traced one times a set-up span of its own).
        let rec = child(&dir.join(exe), role, workload, seed, Arm::Base, &drawn, 0);
        spans.push(span(name, None, t, clock.elapsed().as_secs_f64()));
        rec.map(|r| (t, r))
    };
    let (_, untraced) = timed("untraced_process", "perfbench", "run")?;
    let (t, traced) = timed("traced_process", "perfbench_traced", "traced")?;
    for name in ["setup", "run", "summary", "ledger"] {
        spans.push(span(
            name,
            Some("traced_process"),
            t + traced.num(&format!("span.{name}.start_s")),
            t + traced.num(&format!("span.{name}.end_s")),
        ));
    }
    stamp.push(("trace_requests", drawn[0].total.to_string()));
    stamp.push(("spans", format!("[{}]", spans.join(", "))));

    let mut errors = run_errors(&untraced, &untraced, "untraced run");
    errors.extend(run_errors(&traced, &untraced, "traced run"));

    let run_s = traced.num("span.run_s");
    let core_s =
        traced.num("core.place_s") + traced.num("core.reconfigure_s") + traced.num("core.build_s");
    let self_s = run_s - core_s - traced.num("spot.oracle_s") - draw_s;
    let derived = [
        ("trace.draw_s", draw_s),
        ("trace.requests", drawn[0].total as f64),
        ("cluster.self_s", self_s),
        (
            "cluster.ns_per_event",
            self_s * 1e9 / traced.num("events_popped").max(1.0),
        ),
        (
            "bench.tracing_overhead_frac",
            run_s / untraced.num("wall_s") - 1.0,
        ),
    ];
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = derived
                .iter()
                .find(|(n, _)| *n == name)
                .map_or_else(|| traced.num(name), |(_, v)| *v);
            (name, unit, v)
        })
        .collect();
    Ok(Outcome {
        errors,
        attempted: traced.count("recorded"),
        failed: traced.count("censored"),
        metrics,
    })
}

fn span(name: &str, parent: Option<&str>, start_s: f64, end_s: f64) -> String {
    json_obj(&[
        ("name", json_str(name)),
        ("parent", parent.map_or("null".to_string(), json_str)),
        ("start_s", json_num(start_s)),
        ("end_s", json_num(end_s)),
    ])
}

// ---- sensitivity self-test ---------------------------------------------

/// Alternating base/slow pairs of timed runs per arm.
const SELFTEST_PAIRS: usize = 2;

/// Shows that `req_per_s` sees a slowdown: two digest-identical slower
/// arms must drop it by more than its bound while every simulated
/// metric stays bit-identical.
fn selftest(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let exe = exe_dir()?.join("perfbench");
    let mut all_pass = true;
    let mut rows = Vec::new();
    for (name, arm) in [
        ("diurnal-256", Arm::ReferenceDispatch),
        ("spot-vision-2048", Arm::PerArrival),
    ] {
        let workload = Workload::by_name(name).expect("listed workload");
        let drawn = draw_all(workload, seed, workload.sims);
        let (mut base_rates, mut arm_rates, mut errors) = (Vec::new(), Vec::new(), Vec::new());
        let mut reference: Option<Record> = None;
        for pair in 0..SELFTEST_PAIRS {
            // Alternate which side runs first.
            let order = if pair % 2 == 0 {
                [Arm::Base, arm]
            } else {
                [arm, Arm::Base]
            };
            for side in order {
                let run = child(
                    &exe,
                    "run",
                    workload,
                    seed,
                    side,
                    &drawn,
                    workload.setups_per_sim,
                )?;
                let reference = reference.get_or_insert_with(|| run.clone());
                errors.extend(run_errors(&run, reference, side.name()));
                for (metric, _) in SimMetrics::default().named() {
                    if run.get(metric) != reference.get(metric) {
                        errors.push(format!("{}: {metric} differs", side.name()));
                    }
                }
                if side == Arm::Base {
                    base_rates.extend(nums(&run, "rate"));
                } else {
                    arm_rates.extend(nums(&run, "rate"));
                }
            }
        }
        let drop = 1.0 - median(&arm_rates) / median(&base_rates);
        let pass = errors.is_empty() && drop > REQ_PER_S_BOUND;
        all_pass &= pass;
        for e in &errors {
            eprintln!("perfbench: selftest {name}/{}: {e}", arm.name());
        }
        rows.push(json_obj(&[
            ("workload", json_str(name)),
            ("arm", json_str(arm.name())),
            ("base_req_per_s", json_num(median(&base_rates))),
            ("arm_req_per_s", json_num(median(&arm_rates))),
            ("drop_frac", json_num(drop)),
            ("bound", json_num(REQ_PER_S_BOUND)),
            ("simulated_metrics_identical", errors.is_empty().to_string()),
            ("pass", pass.to_string()),
        ]));
    }
    println!(
        "{}",
        json_obj(&[
            ("selftest", format!("[{}]", rows.join(", "))),
            ("seed", seed.to_string()),
            ("nproc", host_parallelism().to_string()),
            ("pass", all_pass.to_string()),
        ])
    );
    Ok(all_pass)
}
