//! PR-7 benchmark reporter: sharded-engine sweep plus a sharded
//! streaming soak with allocator accounting, written to
//! `results/bench_pr7.json` (analysis in `PERF.md`).
//!
//! Three parts:
//!
//! **Sweep** — fleets of 2048 and 8192 workers, shard counts
//! S ∈ {1, 2, 4, 8}, on two workloads:
//!
//! 1. `wiki` — the paper's diurnal language trace. Batch arrivals pin a
//!    synchronization epoch to every arrival instant, so phases are
//!    short and shard parallelism has little to chew on: this row is
//!    the honest "arrival-bound" baseline.
//! 2. `pulse` — a square wave whose ON level exceeds fleet capacity.
//!    The OFF half drains the backlog with *no* interleaved arrivals,
//!    so epochs stretch to the coordinator horizon and the per-shard
//!    event heaps run long uninterrupted phases — the regime the
//!    sharded engine targets.
//!
//! Every sharded cell is a differential against the S = 1 run of the
//! same cell: digests must match bit for bit, always, on every host.
//! Wall-clock floors (≥ 2x at S = 4 on the pulse row at fleet scale)
//! only arm on hosts with ≥ 4 cores and real cell durations — a
//! single-core container runs the full determinism sweep but cannot
//! honestly time parallelism.
//!
//! **Soak** — ≥ 10⁸ requests streamed through the *sharded* engine
//! (`shards = 4`) with `aggregate_metrics`, RSS sampled throughout. A
//! one-shard-vs-sharded-vs-streamed digest preflight on a truncated
//! slice guards the long run.
//!
//! **Allocator accounting** — this binary installs a counting
//! `#[global_allocator]` (every timing row pays the same few atomic
//! adds, so rows stay comparable). PR-6 measured +69.5 MB of RSS creep
//! across a 10⁹-request soak and left a note to re-examine it; the
//! live-bytes series here separates the two candidate explanations:
//! if live bytes are flat while RSS climbs, the creep is
//! allocator-side retention (free-list/arena growth), not a
//! per-request structure leak.
//!
//! Usage: `bench_pr7 [duration_secs] [seed] [workers_csv|none] [soak_requests]`
//! (defaults: 30 s per sweep cell, seed 42, fleets `2048,8192`,
//! 1e8-request soak; `none` skips the sweep, `0` skips the soak).
//! CI smoke: `bench_pr7 3 42 2048 0` and `bench_pr7 3 42 none 2000000`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use protean::ProteanBuilder;
use protean_cluster::{run_simulation, run_simulation_streaming};
use protean_experiments::report::{banner, table};
use protean_experiments::setup::LANGUAGE_RPS;
use protean_experiments::{golden, PaperSetup};
use protean_metrics::record::Class;
use protean_models::ModelId;
use protean_sim::SimDuration;
use protean_trace::{TraceConfig, TraceShape};

// ---- counting allocator --------------------------------------------

/// Pass-through `System` allocator that counts calls, cumulative bytes
/// and the live-byte balance. Relaxed atomics: the counters are
/// statistics, not synchronization.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_mb() -> f64 {
    LIVE_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

// ---- sweep ---------------------------------------------------------

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

struct CellRow {
    trace: &'static str,
    workers: usize,
    shards: usize,
    requests: usize,
    batches: u64,
    arrivals: u64,
    epochs: u64,
    sequential_secs: f64,
    sharded_secs: f64,
}

impl CellRow {
    fn speedup(&self) -> f64 {
        self.sequential_secs / self.sharded_secs.max(1e-9)
    }

    /// Synchronization epochs per dispatched arrival in the sharded
    /// run: 1.0 under the per-arrival PR-7 discipline, below it when
    /// arrival-run coarsening coalesces consecutive arrivals into one
    /// phase (PR-8).
    fn epochs_per_arrival(&self) -> f64 {
        self.epochs as f64 / self.arrivals.max(1) as f64
    }
}

/// The paper's diurnal language workload with per-worker load held
/// constant as the fleet grows (the PR-5/PR-6 sweep operating point).
fn wiki_trace(setup: &PaperSetup, workers: usize) -> TraceConfig {
    let mut trace = setup.wiki_trace(ModelId::Albert);
    trace.shape = TraceShape::wiki(LANGUAGE_RPS * workers as f64 / 8.0);
    trace
}

/// The drain-phase workload: ON at 8x the paper's per-worker operating
/// point (≈ 1.6x fleet capacity) for 5 s, silent for 5 s. Each ON
/// half builds ~3 s of backlog; each OFF half drains it with no
/// arrivals, so the engine runs long arrival-free phases.
fn pulse_trace(setup: &PaperSetup, workers: usize) -> TraceConfig {
    let mut trace = setup.wiki_trace(ModelId::Albert);
    trace.shape = TraceShape::pulse(
        8.0 * LANGUAGE_RPS * workers as f64 / 8.0,
        SimDuration::from_secs(10.0),
    );
    trace
}

/// Runs one (trace, fleet) cell: one shard once, then every
/// shard count, asserting bit-identical digests throughout. Returns one
/// row per shard count.
fn run_cell(
    setup: &PaperSetup,
    trace_name: &'static str,
    trace: &TraceConfig,
    workers: usize,
    reps: usize,
) -> Vec<CellRow> {
    let scheme = ProteanBuilder::paper();
    let mut config = setup.bench_cluster();
    config.workers = workers;

    let time_run = |shards: usize| {
        let mut c = config.clone();
        c.shards = shards;
        c.shard_threads = shards;
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let run = run_simulation(&c, &scheme, trace);
            best = best.min(t0.elapsed().as_secs_f64());
            result = Some(run);
        }
        (result.expect("reps >= 1"), best)
    };

    let (sequential, sequential_secs) = time_run(1);
    let d0 = golden::digest(&sequential);
    let requests = sequential.metrics.count(Class::All);
    assert!(
        requests > 0,
        "{trace_name} @ {workers} workers: the cell recorded no requests"
    );

    let mut rows = Vec::new();
    for &shards in &SHARD_COUNTS {
        let (sharded, sharded_secs) = time_run(shards);
        // The contract, enforced on every host and every cell size:
        // sharding is a wall-clock optimisation with zero observable
        // effect.
        assert_eq!(
            d0,
            golden::digest(&sharded),
            "{trace_name} @ {workers} workers, S={shards}: sharded diverged from one shard"
        );
        rows.push(CellRow {
            trace: trace_name,
            workers,
            shards,
            requests,
            batches: sharded.stats.dispatch_batches,
            arrivals: sharded.stats.arrivals,
            epochs: sharded.stats.epochs,
            sequential_secs,
            sharded_secs,
        });
    }
    rows
}

// ---- soak ----------------------------------------------------------

struct SoakReport {
    workers: usize,
    shards: usize,
    mean_rps: f64,
    sim_days: f64,
    requests_target: u64,
    requests_recorded: usize,
    censored: u64,
    batches: u64,
    wall_secs: f64,
    strict_p99_ms: f64,
    be_p99_ms: f64,
    preflight_requests: usize,
    rss_peak_mb: f64,
    rss_quarter_mb: f64,
    rss_end_mb: f64,
    live_quarter_mb: f64,
    live_end_mb: f64,
    alloc_calls: u64,
    alloc_gb: f64,
    samples: Vec<(f64, f64, f64)>,
}

impl SoakReport {
    fn mreq_per_sec(&self) -> f64 {
        (self.requests_recorded as u64 + self.censored) as f64 / self.wall_secs.max(1e-9) / 1e6
    }

    fn rss_growth_mb(&self) -> f64 {
        self.rss_end_mb - self.rss_quarter_mb
    }

    fn live_growth_mb(&self) -> f64 {
        self.live_end_mb - self.live_quarter_mb
    }
}

/// VmRSS of this process in MB (Linux; `None` elsewhere — RSS
/// assertions are skipped rather than faked).
fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line
        .trim_start_matches("VmRSS:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The soak workload: per-worker load as in the sweep, diurnal on a
/// real 24 h period (the PR-6 soak shape).
fn soak_trace(setup: &PaperSetup, workers: usize, sim_secs: f64) -> TraceConfig {
    let mut trace = PaperSetup {
        duration_secs: sim_secs,
        seed: setup.seed,
    }
    .wiki_trace(ModelId::Albert);
    trace.shape = TraceShape::WikiDiurnal {
        mean_rps: LANGUAGE_RPS * workers as f64 / 8.0,
        peak_to_mean: 316.0 / 303.0,
        period: SimDuration::from_secs(86_400.0),
    };
    trace
}

fn run_soak(setup: &PaperSetup, requests_target: u64) -> SoakReport {
    let workers = 256usize;
    let shards = 4usize;
    let mean_rps = LANGUAGE_RPS * workers as f64 / 8.0;
    let sim_secs = requests_target as f64 / mean_rps;

    let mut config = setup.cluster();
    config.workers = workers;
    config.shards = shards;
    // 0 = size the thread pool to the host: shard threads on multicore
    // hosts, fully inline sharding on a single core (where extra
    // threads could only add handoff latency).
    config.shard_threads = 0;
    config.aggregate_metrics = true;

    // Digest preflight on a truncated slice with full metrics:
    // sequential, sharded-materialised and sharded-streamed must agree
    // bit for bit before the long run is trusted.
    let preflight_secs = (2_000_000.0 / mean_rps).min(sim_secs);
    let preflight_trace = soak_trace(setup, workers, preflight_secs);
    let mut full_config = config.clone();
    full_config.aggregate_metrics = false;
    let mut sequential_config = full_config.clone();
    sequential_config.shards = 1;
    let scheme = ProteanBuilder::paper();
    let a = run_simulation(&sequential_config, &scheme, &preflight_trace);
    let b = run_simulation(&full_config, &scheme, &preflight_trace);
    let c = run_simulation_streaming(&full_config, &scheme, &preflight_trace);
    let preflight_requests = a.metrics.count(Class::All);
    assert_eq!(
        golden::digest(&a),
        golden::digest(&b),
        "soak preflight: sharded diverged from sequential"
    );
    assert_eq!(
        golden::digest(&b),
        golden::digest(&c),
        "soak preflight: sharded-streamed diverged from sharded-materialised"
    );
    println!(
        "  preflight clean: {preflight_requests} requests, \
         one shard == sharded == sharded-streamed"
    );

    // Sampler: VmRSS and the allocator's live-byte balance every
    // 250 ms for the duration of the streamed run.
    let stop = Arc::new(AtomicBool::new(false));
    let samples: Arc<Mutex<Vec<(f64, f64, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let sampler = {
        let stop = Arc::clone(&stop);
        let samples = Arc::clone(&samples);
        let t0 = Instant::now();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let rss = rss_mb().unwrap_or(0.0);
                samples
                    .lock()
                    .unwrap()
                    .push((t0.elapsed().as_secs_f64(), rss, live_mb()));
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
        })
    };

    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let trace = soak_trace(setup, workers, sim_secs);
    let t0 = Instant::now();
    let result = run_simulation_streaming(&config, &scheme, &trace);
    let wall_secs = t0.elapsed().as_secs_f64();
    let alloc_calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls0;
    let alloc_gb =
        (ALLOC_BYTES.load(Ordering::Relaxed) - bytes0) as f64 / (1024.0 * 1024.0 * 1024.0);
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler");

    let samples = Arc::try_unwrap(samples)
        .expect("sampler joined")
        .into_inner()
        .unwrap();
    // Growth is measured from the quarter mark: by then pools, index
    // and histograms are at steady state, so any further climb would be
    // an O(requests) retention.
    let (rss_peak_mb, rss_quarter_mb, rss_end_mb, live_quarter_mb, live_end_mb) =
        if samples.is_empty() {
            (0.0, 0.0, 0.0, 0.0, 0.0)
        } else {
            let peak = samples.iter().map(|s| s.1).fold(0.0, f64::max);
            let quarter = &samples[samples.len() / 4];
            let end = samples.last().unwrap();
            (peak, quarter.1, end.1, quarter.2, end.2)
        };

    SoakReport {
        workers,
        shards,
        mean_rps,
        sim_days: sim_secs / 86_400.0,
        requests_target,
        requests_recorded: result.metrics.count(Class::All),
        censored: result.censored,
        batches: result.stats.dispatch_batches,
        wall_secs,
        strict_p99_ms: result
            .metrics
            .latency_percentile_ms(Class::Strict, 0.99)
            .unwrap_or(0.0),
        be_p99_ms: result
            .metrics
            .latency_percentile_ms(Class::BestEffort, 0.99)
            .unwrap_or(0.0),
        preflight_requests,
        rss_peak_mb,
        rss_quarter_mb,
        rss_end_mb,
        live_quarter_mb,
        live_end_mb,
        alloc_calls,
        alloc_gb,
        samples,
    }
}

// ---- output --------------------------------------------------------

fn pr7_json(
    setup: &PaperSetup,
    cores: usize,
    rows: &[CellRow],
    soak: Option<&SoakReport>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"sharded_engine_sweep_and_soak\",\n");
    out.push_str("  \"baseline\": \"sequential engine (shards = 1)\",\n");
    out.push_str(&format!(
        "  \"duration_secs\": {:.1},\n  \"seed\": {},\n  \"host_cores\": {},\n",
        setup.duration_secs, setup.seed, cores
    ));
    out.push_str(&protean_experiments::report::floors_json(
        cores,
        &[
            (
                "pulse_speedup_ge_2x_at_s4",
                setup.duration_secs >= 10.0 && cores >= 4,
                "duration_secs >= 10 && host_cores >= 4",
            ),
            (
                "soak_memory_growth_le_256mb",
                true,
                "always (asserted whenever the soak runs)",
            ),
        ],
    ));
    out.push_str("  \"cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"trace\": \"{}\", \"workers\": {}, \"shards\": {}, \"requests\": {}, \
             \"batches\": {}, \"sequential_secs\": {:.6}, \"sharded_secs\": {:.6}, \
             \"speedup\": {:.3}, \"epochs_per_arrival\": {:.4}}}{}\n",
            r.trace,
            r.workers,
            r.shards,
            r.requests,
            r.batches,
            r.sequential_secs,
            r.sharded_secs,
            r.speedup(),
            r.epochs_per_arrival(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    match soak {
        None => out.push_str("  \"soak\": null\n"),
        Some(s) => {
            out.push_str("  \"soak\": {\n");
            out.push_str(&format!(
                "    \"workers\": {}, \"shards\": {}, \"mean_rps\": {:.1}, \"sim_days\": {:.3},\n\
                 \x20   \"requests_target\": {}, \"requests_recorded\": {}, \"censored\": {},\n\
                 \x20   \"batches\": {}, \"wall_secs\": {:.1}, \
                 \"million_requests_per_sec\": {:.3},\n\
                 \x20   \"strict_p99_ms\": {:.3}, \"be_p99_ms\": {:.3}, \
                 \"preflight_requests\": {},\n\
                 \x20   \"alloc_calls\": {}, \"alloc_gb\": {:.2},\n\
                 \x20   \"rss_peak_mb\": {:.1}, \"rss_quarter_mb\": {:.1}, \
                 \"rss_end_mb\": {:.1}, \"rss_growth_mb\": {:.1},\n\
                 \x20   \"live_quarter_mb\": {:.1}, \"live_end_mb\": {:.1}, \
                 \"live_growth_mb\": {:.1},\n",
                s.workers,
                s.shards,
                s.mean_rps,
                s.sim_days,
                s.requests_target,
                s.requests_recorded,
                s.censored,
                s.batches,
                s.wall_secs,
                s.mreq_per_sec(),
                s.strict_p99_ms,
                s.be_p99_ms,
                s.preflight_requests,
                s.alloc_calls,
                s.alloc_gb,
                s.rss_peak_mb,
                s.rss_quarter_mb,
                s.rss_end_mb,
                s.rss_growth_mb(),
                s.live_quarter_mb,
                s.live_end_mb,
                s.live_growth_mb(),
            ));
            // Downsample the (t, rss, live) series to ≤ 64 points.
            let step = (s.samples.len() / 64).max(1);
            let series: Vec<String> = s
                .samples
                .iter()
                .step_by(step)
                .map(|(t, rss, live)| format!("[{t:.1}, {rss:.1}, {live:.1}]"))
                .collect();
            out.push_str(&format!(
                "    \"rss_live_series_mb\": [{}]\n",
                series.join(", ")
            ));
            out.push_str("  }\n");
        }
    }
    out.push('}');
    out.push('\n');
    out
}

fn main() {
    let mut args = std::env::args().skip(1);
    let setup = PaperSetup {
        duration_secs: args.next().and_then(|a| a.parse().ok()).unwrap_or(30.0),
        seed: args.next().and_then(|a| a.parse().ok()).unwrap_or(42),
    };
    let fleets_arg = args.next().unwrap_or_else(|| "2048,8192".to_string());
    let fleets: Vec<usize> = if fleets_arg == "none" {
        Vec::new()
    } else {
        fleets_arg
            .split(',')
            .filter_map(|w| w.trim().parse().ok())
            .filter(|&w| w > 0)
            .collect()
    };
    let soak_requests: u64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000_000);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    banner(
        "bench_pr7",
        &format!(
            "{} s per sweep cell, fleets {:?}, shards {:?}, soak target {} requests, \
             {} host cores",
            setup.duration_secs, fleets, SHARD_COUNTS, soak_requests, cores
        ),
    );

    let reps: usize = std::env::var("BENCH_PR7_REPS")
        .ok()
        .and_then(|r| r.parse().ok())
        .unwrap_or(2);
    let mut rows = Vec::new();
    for &workers in &fleets {
        for (name, trace) in [
            ("wiki", wiki_trace(&setup, workers)),
            ("pulse", pulse_trace(&setup, workers)),
        ] {
            let cell = run_cell(&setup, name, &trace, workers, reps);
            for r in &cell {
                println!(
                    "  {} @ {:>4} workers, S={}: {:.2}s sequential / {:.2}s sharded ({:.2}x)",
                    r.trace,
                    r.workers,
                    r.shards,
                    r.sequential_secs,
                    r.sharded_secs,
                    r.speedup(),
                );
            }
            rows.extend(cell);
        }
    }

    if !rows.is_empty() {
        let printable: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.trace.to_string(),
                    r.workers.to_string(),
                    r.shards.to_string(),
                    r.requests.to_string(),
                    r.batches.to_string(),
                    format!("{:.2}", r.sequential_secs),
                    format!("{:.2}", r.sharded_secs),
                    format!("{:.2}x", r.speedup()),
                    format!("{:.3}", r.epochs_per_arrival()),
                ]
            })
            .collect();
        table(
            &[
                "trace",
                "workers",
                "shards",
                "requests",
                "batches",
                "seq s",
                "sharded s",
                "speedup",
                "ep/arr",
            ],
            &printable,
        );
    }

    // Wall-clock floor: the pulse row's drain phases must parallelise.
    // Digest equality (asserted inside every cell) is the deterministic
    // guard that runs everywhere; timing floors only arm where timing
    // parallelism is honest — real cell durations on a multi-core host.
    if setup.duration_secs >= 10.0 && cores >= 4 {
        for r in &rows {
            if r.trace == "pulse" && r.shards == 4 && r.workers >= 2048 {
                assert!(
                    r.speedup() >= 2.0,
                    "pulse @ {} workers, S=4: speedup {:.2}x below the 2x floor",
                    r.workers,
                    r.speedup()
                );
            }
        }
    } else if !rows.is_empty() {
        println!(
            "\n(speedup floors skipped: {} s cells on {} core(s) — \
             digest equality asserted on every cell)",
            setup.duration_secs, cores
        );
    }

    let soak = if soak_requests > 0 {
        println!(
            "\nsoak: streaming {} requests through shards=4...",
            soak_requests
        );
        let s = run_soak(&setup, soak_requests);
        println!(
            "  {} recorded + {} censored over {:.2} simulated days in {:.1}s wall\n  \
             {:.2}M req/s, {} allocs ({:.2} GB cumulative)\n  \
             RSS peak {:.0} MB (growth {:+.1} MB), live bytes growth {:+.1} MB",
            s.requests_recorded,
            s.censored,
            s.sim_days,
            s.wall_secs,
            s.mreq_per_sec(),
            s.alloc_calls,
            s.alloc_gb,
            s.rss_peak_mb,
            s.rss_growth_mb(),
            s.live_growth_mb(),
        );
        // Flat-footprint contract past the quarter mark, now on both
        // ledgers: RSS (what the OS sees) and live bytes (what the
        // program actually retains). A flat live series with a climbing
        // RSS pins PR-6's creep on the allocator, not the engine.
        assert!(
            s.live_growth_mb() <= 256.0,
            "soak live bytes grew {:.1} MB — the sharded streaming path retains per-request state",
            s.live_growth_mb()
        );
        if s.rss_peak_mb > 0.0 {
            assert!(
                s.rss_growth_mb() <= 256.0,
                "soak RSS grew {:.1} MB past the quarter mark",
                s.rss_growth_mb()
            );
            if rows.is_empty() {
                // Without sweep cells in-process the allocator holds no
                // prior high-water mark, so an absolute ceiling is
                // meaningful too (CI smoke runs use this form).
                assert!(
                    s.rss_peak_mb <= 1024.0,
                    "soak peak RSS {:.1} MB exceeds the 1 GB ceiling",
                    s.rss_peak_mb
                );
            }
        } else {
            println!("  (no /proc/self/status — RSS assertions skipped)");
        }
        Some(s)
    } else {
        None
    };

    let path = std::path::Path::new("results/bench_pr7.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create results/");
    }
    std::fs::write(path, pr7_json(&setup, cores, &rows, soak.as_ref()))
        .expect("write results/bench_pr7.json");
    println!("\nwrote {}", path.display());
}
