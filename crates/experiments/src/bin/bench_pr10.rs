//! Window-expiry coalescing sweep plus the 100k-worker "planetary
//! fleet" streamed cell, written to `results/bench_pr10.json`
//! (analysis in `PERF.md`).
//!
//! Two parts:
//!
//! **Sweep** — fleets of 2048 and 8192 workers, shard counts
//! S ∈ {2, 4, 8}, on the wiki and pulse workloads of `bench_pr7/8`.
//! Every cell runs one shard once as the digest reference, then one
//! arm per shard count at the default coarsening cap. Window expiries
//! join coarsened runs as dispatch members when they win their
//! key-order tie and no shard heap holds an event below theirs, so a
//! run only ends at a genuinely serial coordinator event or a real
//! shard conflict.
//!
//! The headline metric is **epochs per dispatch event** —
//! `epochs / (arrivals + expiries)`, the fraction of dispatch work
//! that still pays a full coordinator round-trip. Deterministic floors
//! (asserted on every host): wiki @ 2048 stays at or below 0.15 epochs
//! per dispatch event (measured 0.13; the residue is genuinely
//! nonempty phases — pending shard finish events — not serial cuts),
//! the serial-event share of its run cuts stays below 40% (measured
//! 0%), and the run partition is the same at every shard count, the
//! one-shard reference included. Digest equality against the
//! reference is asserted on every arm of every cell, and every cell
//! must record requests.
//!
//! **Planetary fleet** — 100 000 workers, `shards = 8`, a streamed
//! diurnal trace with `aggregate_metrics`, RSS and live-byte ledgers
//! sampled throughout. A one-shard-vs-sharded-vs-streamed digest
//! preflight on a truncated slice guards the run; both memory ledgers
//! must stay flat (≤ 256 MB growth) past the quarter mark.
//!
//! Usage: `bench_pr10 [duration_secs] [seed] [workers_csv|none]
//! [planetary_requests]` (defaults: 30 s per sweep cell, seed 42,
//! fleets `2048,8192`, 1e8-request planetary cell; `none` skips the
//! sweep, `0` skips the planetary cell).
//! CI smoke: `bench_pr10 3 42 2048 0` and `bench_pr10 3 42 none 2000000`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use protean::ProteanBuilder;
use protean_cluster::{run_simulation, run_simulation_streaming, EngineStats};
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

/// One arm of a sweep cell: the stats snapshot plus its best-of-reps
/// wall time.
struct Arm {
    stats: EngineStats,
    secs: f64,
}

impl Arm {
    fn epochs_per_dispatch(&self) -> f64 {
        self.stats.epochs as f64 / (self.stats.arrivals + self.stats.expiries).max(1) as f64
    }

    /// Share of run cuts attributed to a serial coordinator event —
    /// the cut cause expiry coalescing exists to retire.
    fn serial_cut_share(&self) -> f64 {
        self.stats.run_cutoffs.serial_event as f64 / self.stats.epochs.max(1) as f64
    }

    /// The extended conservation triad every arm must satisfy:
    /// `epochs + coalesced_arrivals + coalesced_expiries =
    /// arrivals + expiries` and `run_cutoffs.total() = epochs`.
    fn assert_triad(&self, label: &str) {
        let s = &self.stats;
        assert_eq!(
            s.epochs + s.coalesced_arrivals + s.coalesced_expiries,
            s.arrivals + s.expiries,
            "{label}: epoch conservation broken"
        );
        assert_eq!(
            s.run_cutoffs.total(),
            s.epochs,
            "{label}: cut taxonomy does not cover every run"
        );
    }
}

struct CellRow {
    trace: &'static str,
    workers: usize,
    shards: usize,
    requests: usize,
    arm: Arm,
}

/// The paper's diurnal language workload with per-worker load held
/// constant as the fleet grows (the PR-5..8 sweep operating point).
fn wiki_trace(setup: &PaperSetup, workers: usize) -> TraceConfig {
    let mut trace = setup.wiki_trace(ModelId::Albert);
    trace.shape = TraceShape::wiki(LANGUAGE_RPS * workers as f64 / 8.0);
    trace
}

/// The drain-phase workload: ON at 8x the paper's per-worker operating
/// point for 5 s, silent for 5 s (the `bench_pr7` pulse shape).
fn pulse_trace(setup: &PaperSetup, workers: usize) -> TraceConfig {
    let mut trace = setup.wiki_trace(ModelId::Albert);
    trace.shape = TraceShape::pulse(
        8.0 * LANGUAGE_RPS * workers as f64 / 8.0,
        SimDuration::from_secs(10.0),
    );
    trace
}

/// Runs one (trace, fleet) cell: one shard once as the digest
/// reference, then one arm per shard count, asserting bit-identical
/// digests, reconciled counter triads and a shard-count-invariant run
/// partition throughout. Returns one row per shard count.
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

    let time_arm = |shards: usize| {
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

    let reference = run_simulation(&config, &scheme, trace);
    let d0 = golden::digest(&reference);
    let requests = reference.metrics.count(Class::All);
    assert!(
        requests > 0,
        "{trace_name} @ {workers} workers: the cell recorded no requests"
    );

    // Shard-count invariance: the admission checks union over every
    // shard heap, so the run partition — the epoch count, the
    // coalescing counters and the whole cut taxonomy — must not depend
    // on S. (Per-shard work counters like scan visits legitimately
    // vary with the partition and are excluded.)
    let partition = |s: &EngineStats| {
        (
            s.arrivals,
            s.expiries,
            s.epochs,
            s.coalesced_arrivals,
            s.coalesced_expiries,
            s.run_cutoffs,
        )
    };
    let mut rows = Vec::new();
    for &shards in &SHARD_COUNTS {
        let label = format!("{trace_name} @ {workers} workers, S={shards}");
        let (run, secs) = time_arm(shards);
        // The contract, on every host and every cell size: expiry
        // coalescing is an exact elision of provably-empty phases
        // with zero observable effect.
        assert_eq!(d0, golden::digest(&run), "{label}: diverged from one shard");
        assert_eq!(
            partition(&run.stats),
            partition(&reference.stats),
            "{label}: run partition differs from one shard"
        );
        let arm = Arm {
            stats: run.stats,
            secs,
        };
        arm.assert_triad(&label);
        rows.push(CellRow {
            trace: trace_name,
            workers,
            shards,
            requests,
            arm,
        });
    }
    rows
}

// ---- planetary fleet -----------------------------------------------

struct PlanetaryReport {
    workers: usize,
    shards: usize,
    mean_rps: f64,
    sim_secs: f64,
    requests_target: u64,
    requests_recorded: usize,
    censored: u64,
    stats: EngineStats,
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

impl PlanetaryReport {
    fn mreq_per_sec(&self) -> f64 {
        (self.requests_recorded as u64 + self.censored) as f64 / self.wall_secs.max(1e-9) / 1e6
    }

    fn epochs_per_dispatch(&self) -> f64 {
        self.stats.epochs as f64 / (self.stats.arrivals + self.stats.expiries).max(1) as f64
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

/// The planetary workload: per-worker load as in the sweep, diurnal on
/// a real 24 h period (the PR-6/PR-7 soak shape) across 100k workers.
fn planetary_trace(setup: &PaperSetup, workers: usize, sim_secs: f64) -> TraceConfig {
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

fn run_planetary(setup: &PaperSetup, requests_target: u64) -> PlanetaryReport {
    let workers = 100_000usize;
    let shards = 8usize;
    let mean_rps = LANGUAGE_RPS * workers as f64 / 8.0;
    let sim_secs = requests_target as f64 / mean_rps;

    let mut config = setup.cluster();
    config.workers = workers;
    config.shards = shards;
    // 0 = size the thread pool to the host: shard threads on multicore
    // hosts, fully inline sharding on a single core.
    config.shard_threads = 0;
    config.aggregate_metrics = true;

    // Digest preflight on a truncated slice with full metrics:
    // one shard, sharded-materialised and sharded-streamed must agree
    // bit for bit at fleet scale before the long run is trusted.
    let preflight_secs = (2_000_000.0 / mean_rps).min(sim_secs);
    let preflight_trace = planetary_trace(setup, workers, preflight_secs);
    let mut full_config = config.clone();
    full_config.aggregate_metrics = false;
    let mut single_config = full_config.clone();
    single_config.shards = 1;
    let scheme = ProteanBuilder::paper();
    let a = run_simulation(&single_config, &scheme, &preflight_trace);
    let b = run_simulation(&full_config, &scheme, &preflight_trace);
    let c = run_simulation_streaming(&full_config, &scheme, &preflight_trace);
    let preflight_requests = a.metrics.count(Class::All);
    assert_eq!(
        golden::digest(&a),
        golden::digest(&b),
        "planetary preflight: sharded diverged from one shard"
    );
    assert_eq!(
        golden::digest(&b),
        golden::digest(&c),
        "planetary preflight: sharded-streamed diverged from sharded-materialised"
    );
    println!(
        "  preflight clean: {preflight_requests} requests at {workers} workers, \
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
    let trace = planetary_trace(setup, workers, sim_secs);
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
    // Growth is measured from the quarter mark: by then the 100k-worker
    // pool/index/histogram state is steady, so any further climb would
    // be an O(requests) retention.
    let (rss_peak_mb, rss_quarter_mb, rss_end_mb, live_quarter_mb, live_end_mb) =
        if samples.is_empty() {
            (0.0, 0.0, 0.0, 0.0, 0.0)
        } else {
            let peak = samples.iter().map(|s| s.1).fold(0.0, f64::max);
            let quarter = &samples[samples.len() / 4];
            let end = samples.last().unwrap();
            (peak, quarter.1, end.1, quarter.2, end.2)
        };

    PlanetaryReport {
        workers,
        shards,
        mean_rps,
        sim_secs,
        requests_target,
        requests_recorded: result.metrics.count(Class::All),
        censored: result.censored,
        stats: result.stats,
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

fn arm_json(a: &Arm) -> String {
    let c = &a.stats.run_cutoffs;
    format!(
        "{{\"secs\": {:.6}, \"epochs\": {}, \"epochs_per_dispatch_event\": {:.4}, \
         \"coalesced_arrivals\": {}, \"coalesced_expiries\": {}, \
         \"cuts\": {{\"serial_event\": {}, \"shard_conflict\": {}, \
         \"expiry_shard_conflict\": {}, \"max_arrivals\": {}, \
         \"journal_pressure\": {}, \"trace_end\": {}}}}}",
        a.secs,
        a.stats.epochs,
        a.epochs_per_dispatch(),
        a.stats.coalesced_arrivals,
        a.stats.coalesced_expiries,
        c.serial_event,
        c.shard_conflict,
        c.expiry_shard_conflict,
        c.max_arrivals,
        c.journal_pressure,
        c.trace_end,
    )
}

fn pr10_json(
    setup: &PaperSetup,
    cores: usize,
    rows: &[CellRow],
    planetary: Option<&PlanetaryReport>,
) -> String {
    let has_wiki_2048 = rows.iter().any(|r| r.trace == "wiki" && r.workers == 2048);
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"expiry_coalescing_sweep_and_planetary_fleet\",\n");
    out.push_str("  \"reference\": \"shards = 1 (digest and run partition)\",\n");
    out.push_str(&format!(
        "  \"duration_secs\": {:.1},\n  \"seed\": {},\n  \"host_cores\": {},\n",
        setup.duration_secs, setup.seed, cores
    ));
    out.push_str(&protean_experiments::report::floors_json(
        cores,
        &[
            (
                "wiki_2048_epochs_per_dispatch_event_le_0.15",
                has_wiki_2048,
                "wiki @ 2048 cell present (deterministic, host-independent)",
            ),
            (
                "wiki_2048_serial_cut_share_lt_40pct",
                has_wiki_2048,
                "wiki @ 2048 cell present (deterministic, host-independent)",
            ),
            (
                "planetary_memory_growth_le_256mb",
                planetary.is_some(),
                "always (asserted whenever the planetary cell runs)",
            ),
        ],
    ));
    out.push_str("  \"cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"trace\": \"{}\", \"workers\": {}, \"shards\": {}, \"requests\": {}, \
             \"arrivals\": {}, \"expiries\": {},\n     \"arm\": {}}}{}\n",
            r.trace,
            r.workers,
            r.shards,
            r.requests,
            r.arm.stats.arrivals,
            r.arm.stats.expiries,
            arm_json(&r.arm),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    match planetary {
        None => out.push_str("  \"planetary\": null\n"),
        Some(p) => {
            out.push_str("  \"planetary\": {\n");
            out.push_str(&format!(
                "    \"workers\": {}, \"shards\": {}, \"mean_rps\": {:.1}, \
                 \"sim_secs\": {:.1},\n\
                 \x20   \"requests_target\": {}, \"requests_recorded\": {}, \"censored\": {},\n\
                 \x20   \"arrivals\": {}, \"expiries\": {}, \"epochs\": {}, \
                 \"coalesced_arrivals\": {}, \"coalesced_expiries\": {},\n\
                 \x20   \"epochs_per_dispatch_event\": {:.4}, \"wall_secs\": {:.1}, \
                 \"million_requests_per_sec\": {:.3},\n\
                 \x20   \"strict_p99_ms\": {:.3}, \"be_p99_ms\": {:.3}, \
                 \"preflight_requests\": {},\n\
                 \x20   \"alloc_calls\": {}, \"alloc_gb\": {:.2},\n\
                 \x20   \"rss_peak_mb\": {:.1}, \"rss_quarter_mb\": {:.1}, \
                 \"rss_end_mb\": {:.1}, \"rss_growth_mb\": {:.1},\n\
                 \x20   \"live_quarter_mb\": {:.1}, \"live_end_mb\": {:.1}, \
                 \"live_growth_mb\": {:.1},\n",
                p.workers,
                p.shards,
                p.mean_rps,
                p.sim_secs,
                p.requests_target,
                p.requests_recorded,
                p.censored,
                p.stats.arrivals,
                p.stats.expiries,
                p.stats.epochs,
                p.stats.coalesced_arrivals,
                p.stats.coalesced_expiries,
                p.epochs_per_dispatch(),
                p.wall_secs,
                p.mreq_per_sec(),
                p.strict_p99_ms,
                p.be_p99_ms,
                p.preflight_requests,
                p.alloc_calls,
                p.alloc_gb,
                p.rss_peak_mb,
                p.rss_quarter_mb,
                p.rss_end_mb,
                p.rss_growth_mb(),
                p.live_quarter_mb,
                p.live_end_mb,
                p.live_growth_mb(),
            ));
            // Downsample the (t, rss, live) series to ≤ 64 points.
            let step = (p.samples.len() / 64).max(1);
            let series: Vec<String> = p
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
    let planetary_requests: u64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000_000);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    banner(
        "bench_pr10",
        &format!(
            "{} s per sweep cell, fleets {:?}, shards {:?}, planetary target {} requests, \
             {} host cores",
            setup.duration_secs, fleets, SHARD_COUNTS, planetary_requests, cores
        ),
    );

    let reps: usize = std::env::var("BENCH_PR10_REPS")
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
                    "  {} @ {:>4} workers, S={}: ep/dispatch {:.4}, serial share {:.0}% \
                     ({:.2}s wall)",
                    r.trace,
                    r.workers,
                    r.shards,
                    r.arm.epochs_per_dispatch(),
                    100.0 * r.arm.serial_cut_share(),
                    r.arm.secs,
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
                    r.arm.stats.arrivals.to_string(),
                    r.arm.stats.expiries.to_string(),
                    format!("{:.4}", r.arm.epochs_per_dispatch()),
                    format!("{:.0}%", 100.0 * r.arm.serial_cut_share()),
                    format!("{:.2}", r.arm.secs),
                ]
            })
            .collect();
        table(
            &[
                "trace",
                "workers",
                "shards",
                "requests",
                "arrivals",
                "expiries",
                "ep/dispatch",
                "serial %",
                "wall s",
            ],
            &printable,
        );
    }

    let planetary = run_planetary_part(&setup, planetary_requests);

    // The artifact is written before any floor asserts so a failed
    // floor still leaves the full breakdown on disk for diagnosis.
    let path = std::path::Path::new("results/bench_pr10.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create results/");
    }
    std::fs::write(path, pr10_json(&setup, cores, &rows, planetary.as_ref()))
        .expect("write results/bench_pr10.json");
    println!("\nwrote {}", path.display());

    // Deterministic floors: the coalesced wiki cell at fleet scale
    // must keep serial-event cuts retired. These are epoch-partition
    // properties — identical on every host and at every cell duration —
    // so they are asserted unconditionally.
    for r in rows
        .iter()
        .filter(|r| r.trace == "wiki" && r.workers == 2048)
    {
        assert!(
            r.arm.epochs_per_dispatch() <= 0.15,
            "wiki @ 2048, S={}: {:.4} epochs per dispatch event above the 0.15 floor",
            r.shards,
            r.arm.epochs_per_dispatch()
        );
        assert!(
            r.arm.serial_cut_share() < 0.40,
            "wiki @ 2048, S={}: serial-event cut share {:.0}% at or above 40%",
            r.shards,
            100.0 * r.arm.serial_cut_share()
        );
    }

    if let Some(p) = &planetary {
        // The extended triad must reconcile at planetary scale too.
        let s = &p.stats;
        assert_eq!(
            s.epochs + s.coalesced_arrivals + s.coalesced_expiries,
            s.arrivals + s.expiries,
            "planetary: epoch conservation broken"
        );
        // Flat-footprint contract past the quarter mark on both
        // ledgers: RSS (what the OS sees) and live bytes (what the
        // program actually retains).
        assert!(
            p.live_growth_mb() <= 256.0,
            "planetary live bytes grew {:.1} MB — the streamed path retains per-request state",
            p.live_growth_mb()
        );
        if p.rss_peak_mb > 0.0 {
            assert!(
                p.rss_growth_mb() <= 256.0,
                "planetary RSS grew {:.1} MB past the quarter mark",
                p.rss_growth_mb()
            );
        } else {
            println!("  (no /proc/self/status — RSS assertions skipped)");
        }
    }
}

/// Runs the planetary cell (if requested) and prints its summary; the
/// floors on its numbers are asserted by `main` only after the JSON
/// artifact is on disk.
fn run_planetary_part(setup: &PaperSetup, planetary_requests: u64) -> Option<PlanetaryReport> {
    if planetary_requests == 0 {
        return None;
    }
    println!(
        "\nplanetary fleet: streaming {} requests through 100000 workers, shards=8...",
        planetary_requests
    );
    let p = run_planetary(setup, planetary_requests);
    println!(
        "  {} recorded + {} censored over {:.1} simulated seconds in {:.1}s wall\n  \
         {:.2}M req/s, {:.4} epochs per dispatch event, {} allocs ({:.2} GB cumulative)\n  \
         RSS peak {:.0} MB (growth {:+.1} MB), live bytes growth {:+.1} MB",
        p.requests_recorded,
        p.censored,
        p.sim_secs,
        p.wall_secs,
        p.mreq_per_sec(),
        p.epochs_per_dispatch(),
        p.alloc_calls,
        p.alloc_gb,
        p.rss_peak_mb,
        p.rss_growth_mb(),
        p.live_growth_mb(),
    );
    Some(p)
}
