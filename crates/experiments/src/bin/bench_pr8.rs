//! Epoch coarsening differential, written to `results/bench_pr8.json`
//! (analysis in `PERF.md`).
//!
//! Every cell runs the engine twice on the same (trace, fleet, shard
//! count) point:
//!
//! * **per-arrival** — `max_epoch_arrivals = 1`, the PR-7 discipline:
//!   one synchronization epoch (phase + barrier) per dispatched
//!   arrival;
//! * **coarsened** — `max_epoch_arrivals = 64` (the default): the
//!   coordinator peels conflict-checked dispatch *runs* (arrivals and
//!   window expiries) and launches one phase per run.
//!
//! Two deterministic contracts are asserted inside every timed cell, on
//! every host, at every duration:
//!
//! 1. **Digest equality** — per-arrival, coarsened and the one-shard
//!    reference produce bit-identical digests. Coarsening only elides
//!    phases that are provably empty, so it must have zero observable
//!    effect. Every cell must record requests.
//! 2. **Epochs-per-arrival floor** — on the arrival-dense wiki trace at
//!    2048 workers the coarsened arm must coalesce to ≤ 0.5 epochs per
//!    arrival (the per-arrival arm is one epoch per dispatch event),
//!    and the counter triad `epochs + coalesced = arrivals + expiries`,
//!    `cutoffs = epochs` must reconcile.
//!
//! Wall-clock floors stay core-count-gated as in `bench_pr7`: a
//! single-core container runs the full determinism sweep but cannot
//! honestly time barrier elision against thread handoff.
//!
//! Usage: `bench_pr8 [duration_secs] [seed] [workers_csv|none]`
//! (defaults: 30 s per cell, seed 42, fleet `2048`).
//! CI smoke: `bench_pr8 3 42 2048`.

use std::time::Instant;

use protean::ProteanBuilder;
use protean_cluster::{run_simulation, SimulationResult};
use protean_experiments::report::{banner, table};
use protean_experiments::setup::LANGUAGE_RPS;
use protean_experiments::{golden, PaperSetup};
use protean_metrics::record::Class;
use protean_models::ModelId;
use protean_sim::SimDuration;
use protean_trace::{TraceConfig, TraceShape};

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];
const COARSE_CAP: u64 = 64;

struct CellRow {
    trace: &'static str,
    workers: usize,
    shards: usize,
    requests: usize,
    arrivals: u64,
    per_arrival_epochs: u64,
    coarse_epochs: u64,
    coalesced: u64,
    cut_serial: u64,
    cut_shard: u64,
    cut_cap: u64,
    per_arrival_secs: f64,
    coarse_secs: f64,
}

impl CellRow {
    fn speedup(&self) -> f64 {
        self.per_arrival_secs / self.coarse_secs.max(1e-9)
    }

    fn epochs_per_arrival(&self) -> f64 {
        self.coarse_epochs as f64 / self.arrivals.max(1) as f64
    }
}

/// The paper's diurnal language workload with per-worker load held
/// constant as the fleet grows (the `bench_pr7` operating point).
fn wiki_trace(setup: &PaperSetup, workers: usize) -> TraceConfig {
    let mut trace = setup.wiki_trace(ModelId::Albert);
    trace.shape = TraceShape::wiki(LANGUAGE_RPS * workers as f64 / 8.0);
    trace
}

/// The drain-phase workload from `bench_pr7`: ON at ≈ 1.6x fleet
/// capacity for 5 s, silent for 5 s. The OFF halves have no arrivals to
/// coalesce, so this row bounds how much coarsening can matter when the
/// engine is event-bound rather than arrival-bound.
fn pulse_trace(setup: &PaperSetup, workers: usize) -> TraceConfig {
    let mut trace = setup.wiki_trace(ModelId::Albert);
    trace.shape = TraceShape::pulse(
        8.0 * LANGUAGE_RPS * workers as f64 / 8.0,
        SimDuration::from_secs(10.0),
    );
    trace
}

/// Runs one (trace, fleet, shards) cell: the one-shard reference once,
/// then the per-arrival and coarsened sharded arms, asserting digest
/// equality and counter conservation on each.
fn run_cell(
    setup: &PaperSetup,
    trace_name: &'static str,
    trace: &TraceConfig,
    workers: usize,
    shards: usize,
    reps: usize,
) -> CellRow {
    let scheme = ProteanBuilder::paper();
    let mut config = setup.bench_cluster();
    config.workers = workers;

    let time_arm = |shards: usize, cap: u64| -> (SimulationResult, f64) {
        let mut c = config.clone();
        c.shards = shards;
        c.shard_threads = shards.min(2);
        c.max_epoch_arrivals = cap;
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

    let (reference, _) = time_arm(1, COARSE_CAP);
    let d0 = golden::digest(&reference);
    assert!(
        reference.metrics.count(Class::All) > 0,
        "{trace_name} @ {workers} workers: the cell recorded no requests"
    );
    let (per_arrival, per_arrival_secs) = time_arm(shards, 1);
    let (coarse, coarse_secs) = time_arm(shards, COARSE_CAP);

    // Contract 1: coarsening has zero observable effect, per timed cell.
    assert_eq!(
        d0,
        golden::digest(&per_arrival),
        "{trace_name} @ {workers} workers, S={shards}: per-arrival arm diverged from one shard"
    );
    assert_eq!(
        d0,
        golden::digest(&coarse),
        "{trace_name} @ {workers} workers, S={shards}: coarsened arm diverged from one shard"
    );

    // Contract 2: the extended counter triad reconciles on both arms,
    // and the per-arrival arm really is one epoch per dispatch event.
    for (arm, r) in [("per-arrival", &per_arrival), ("coarsened", &coarse)] {
        assert_eq!(
            r.stats.epochs + r.stats.coalesced_arrivals + r.stats.coalesced_expiries,
            r.stats.arrivals + r.stats.expiries,
            "{trace_name} S={shards} {arm}: epoch conservation broken"
        );
        assert_eq!(
            r.stats.run_cutoffs.total(),
            r.stats.epochs,
            "{trace_name} S={shards} {arm}: cutoff attribution broken"
        );
    }
    assert_eq!(
        per_arrival.stats.epochs,
        per_arrival.stats.arrivals + per_arrival.stats.expiries
    );
    assert_eq!(per_arrival.stats.coalesced_arrivals, 0);
    assert_eq!(per_arrival.stats.coalesced_expiries, 0);

    CellRow {
        trace: trace_name,
        workers,
        shards,
        requests: coarse.metrics.count(Class::All),
        arrivals: coarse.stats.arrivals,
        per_arrival_epochs: per_arrival.stats.epochs,
        coarse_epochs: coarse.stats.epochs,
        coalesced: coarse.stats.coalesced_arrivals,
        cut_serial: coarse.stats.run_cutoffs.serial_event,
        cut_shard: coarse.stats.run_cutoffs.shard_conflict,
        cut_cap: coarse.stats.run_cutoffs.max_arrivals,
        per_arrival_secs,
        coarse_secs,
    }
}

fn pr8_json(setup: &PaperSetup, cores: usize, rows: &[CellRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"epoch_coarsening_differential\",\n");
    out.push_str("  \"baseline\": \"per-arrival epochs (max_epoch_arrivals = 1)\",\n");
    out.push_str(&format!(
        "  \"coarse_cap\": {COARSE_CAP},\n  \"duration_secs\": {:.1},\n  \"seed\": {},\n  \
         \"host_cores\": {},\n",
        setup.duration_secs, setup.seed, cores
    ));
    out.push_str(&protean_experiments::report::floors_json(
        cores,
        &[
            (
                "wiki_speedup_ge_1x",
                setup.duration_secs >= 10.0 && cores >= 4,
                "duration_secs >= 10 && host_cores >= 4",
            ),
            (
                "wiki_epochs_per_arrival_le_0.5",
                true,
                "always (deterministic, host-independent)",
            ),
        ],
    ));
    out.push_str("  \"cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"trace\": \"{}\", \"workers\": {}, \"shards\": {}, \"requests\": {}, \
             \"arrivals\": {}, \"per_arrival_epochs\": {}, \"coarse_epochs\": {}, \
             \"coalesced_arrivals\": {}, \"cut_serial\": {}, \"cut_shard\": {}, \
             \"cut_cap\": {}, \"per_arrival_secs\": {:.6}, \"coarse_secs\": {:.6}, \
             \"speedup\": {:.3}, \"epochs_per_arrival\": {:.4}}}{}\n",
            r.trace,
            r.workers,
            r.shards,
            r.requests,
            r.arrivals,
            r.per_arrival_epochs,
            r.coarse_epochs,
            r.coalesced,
            r.cut_serial,
            r.cut_shard,
            r.cut_cap,
            r.per_arrival_secs,
            r.coarse_secs,
            r.speedup(),
            r.epochs_per_arrival(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut args = std::env::args().skip(1);
    let setup = PaperSetup {
        duration_secs: args.next().and_then(|a| a.parse().ok()).unwrap_or(30.0),
        seed: args.next().and_then(|a| a.parse().ok()).unwrap_or(42),
    };
    let fleets_arg = args.next().unwrap_or_else(|| "2048".to_string());
    let fleets: Vec<usize> = if fleets_arg == "none" {
        Vec::new()
    } else {
        fleets_arg
            .split(',')
            .filter_map(|w| w.trim().parse().ok())
            .filter(|&w| w > 0)
            .collect()
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    banner(
        "bench_pr8",
        &format!(
            "{} s per cell, fleets {:?}, shards {:?}, coarse cap {}, {} host cores",
            setup.duration_secs, fleets, SHARD_COUNTS, COARSE_CAP, cores
        ),
    );

    let reps: usize = std::env::var("BENCH_PR8_REPS")
        .ok()
        .and_then(|r| r.parse().ok())
        .unwrap_or(2);
    let mut rows = Vec::new();
    for &workers in &fleets {
        for (name, trace) in [
            ("wiki", wiki_trace(&setup, workers)),
            ("pulse", pulse_trace(&setup, workers)),
        ] {
            for &shards in &SHARD_COUNTS {
                let r = run_cell(&setup, name, &trace, workers, shards, reps);
                println!(
                    "  {} @ {:>4} workers, S={}: {:.2}s per-arrival / {:.2}s coarsened \
                     ({:.2}x), {:.3} epochs/arrival",
                    r.trace,
                    r.workers,
                    r.shards,
                    r.per_arrival_secs,
                    r.coarse_secs,
                    r.speedup(),
                    r.epochs_per_arrival(),
                );
                rows.push(r);
            }
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
                    r.arrivals.to_string(),
                    r.coarse_epochs.to_string(),
                    format!("{:.3}", r.epochs_per_arrival()),
                    format!("{:.2}", r.per_arrival_secs),
                    format!("{:.2}", r.coarse_secs),
                    format!("{:.2}x", r.speedup()),
                ]
            })
            .collect();
        table(
            &[
                "trace",
                "workers",
                "shards",
                "arrivals",
                "epochs",
                "ep/arr",
                "per-arr s",
                "coarse s",
                "speedup",
            ],
            &printable,
        );
    }

    // The coalescing floor is deterministic (a property of the trace and
    // the conflict structure, not of the host), so it is asserted on
    // every run, smoke cells included: the arrival-dense wiki row at
    // fleet scale must coalesce at least 2:1.
    for r in &rows {
        if r.trace == "wiki" && r.workers >= 2048 {
            assert!(
                r.epochs_per_arrival() <= 0.5,
                "wiki @ {} workers, S={}: coarsening only reached {:.3} epochs/arrival \
                 (floor 0.5)",
                r.workers,
                r.shards,
                r.epochs_per_arrival()
            );
        }
    }

    // Wall-clock floor: on real cells with real parallelism, eliding
    // barriers must not be slower than taking them.
    if setup.duration_secs >= 10.0 && cores >= 4 {
        for r in &rows {
            if r.trace == "wiki" && r.workers >= 2048 && r.shards == 4 {
                assert!(
                    r.speedup() >= 1.0,
                    "wiki @ {} workers, S=4: coarsened arm slower than per-arrival \
                     ({:.2}x)",
                    r.workers,
                    r.speedup()
                );
            }
        }
    } else if !rows.is_empty() {
        println!(
            "\n(speedup floors skipped: {} s cells on {} core(s) — digest equality and \
             the epochs-per-arrival floor asserted on every cell)",
            setup.duration_secs, cores
        );
    }

    let path = std::path::Path::new("results/bench_pr8.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create results/");
    }
    std::fs::write(path, pr8_json(&setup, cores, &rows)).expect("write results/bench_pr8.json");
    println!("\nwrote {}", path.display());
}
