//! PR-5 benchmark reporter: fleet-scale dispatch sweep, written to
//! `results/bench_pr5.json`.
//!
//! Scales the cluster from the paper's 8-GPU testbed up to 512+
//! workers with the arrival rate scaled proportionally (constant per-worker
//! load, the honest fleet-growth regime). The workload is the paper's
//! language trace — batch size 4, so every fourth request pays a
//! dispatch decision, the regime where target selection binds. Each
//! cell is timed twice on the *same* materialised trace:
//!
//! 1. **linear** — `ClusterConfig::reference_dispatch` selects the
//!    retained O(W) scans the dispatcher used before the index;
//! 2. **indexed** — the incremental [`DispatchIndex`] (O(log W)
//!    least-loaded lookup, first-fit cursor for `Consolidate`).
//!
//! Both runs must produce bit-identical digests — every cell is a
//! fleet-scale differential test — and `EngineStats`' dispatch
//! counters report the scan cost per batch, which should grow ~W for
//! the linear baseline and stay near-flat for the index.
//!
//! Usage: `bench_pr5 [duration_secs] [seed] [workers_csv]`
//! (defaults 150 s — ≥1M requests at the 512-worker cell — seed 42,
//! fleets `8,32,128,512,2048`; the 2048 cell extends the sweep past
//! the paper-scale 512 point to show the divergence of the O(W) scan).
//!
//! The scan-visit counters are deterministic and asserted here; the
//! wall-clock ratio is load-dependent (the dispatch scan is one term
//! in the per-batch pipeline) and only a conservative floor is
//! asserted — see DESIGN.md for the measured curve and the arithmetic.
//!
//! [`DispatchIndex`]: protean_cluster::DispatchIndex

use std::time::Instant;

use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::{run_simulation_on, SchemeBuilder, SimulationResult};
use protean_experiments::report::{banner, table};
use protean_experiments::setup::LANGUAGE_RPS;
use protean_experiments::{golden, PaperSetup};
use protean_metrics::record::Class;
use protean_models::ModelId;
use protean_sim::RngFactory;
use protean_trace::TraceShape;

/// One (scheme, fleet-size) cell: the same trace timed under the
/// linear-scan baseline and the dispatch index.
struct CellRow {
    scheme: String,
    policy: &'static str,
    workers: usize,
    requests: usize,
    batches: u64,
    linear_secs: f64,
    indexed_secs: f64,
    linear_visits: u64,
    indexed_visits: u64,
    index_updates: u64,
    backlog_requeued: u64,
}

impl CellRow {
    fn speedup(&self) -> f64 {
        self.linear_secs / self.indexed_secs.max(1e-9)
    }

    fn linear_visits_per_batch(&self) -> f64 {
        self.linear_visits as f64 / (self.batches as f64).max(1.0)
    }

    fn indexed_visits_per_batch(&self) -> f64 {
        self.indexed_visits as f64 / (self.batches as f64).max(1.0)
    }
}

fn run_cell(
    setup: &PaperSetup,
    scheme: &dyn SchemeBuilder,
    policy: &'static str,
    workers: usize,
) -> CellRow {
    let mut config = setup.bench_cluster();
    config.workers = workers;
    // Language serving is the dispatch-bound regime — batch size 4
    // means every 4 requests pay one O(W) scan, 32× the dispatch rate
    // of the vision models. Per-worker load is held constant as the
    // fleet grows: the paper's 128 rps feeds 8 workers, so W workers
    // see 128 × W / 8.
    let mut trace_config = setup.wiki_trace(ModelId::Albert);
    trace_config.shape = TraceShape::wiki(LANGUAGE_RPS * workers as f64 / 8.0);
    let factory = RngFactory::new(config.seed);
    let trace = trace_config.generate(&factory);
    let requests = trace.requests().len();

    let mut linear_config = config.clone();
    linear_config.reference_dispatch = true;
    // Wall-clock is the min over `reps` alternating pairs: single runs
    // on a busy host can swing tens of percent, and min-of-reps is the
    // standard robust estimator for "how fast does this actually go".
    let reps: usize = std::env::var("BENCH_PR5_REPS")
        .ok()
        .and_then(|r| r.parse().ok())
        .unwrap_or(2);
    let mut linear_secs = f64::INFINITY;
    let mut indexed_secs = f64::INFINITY;
    let mut linear = None;
    let mut indexed = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let run = run_simulation_on(&linear_config, scheme, trace.clone());
        linear_secs = linear_secs.min(t0.elapsed().as_secs_f64());
        linear = Some(run);
        let t1 = Instant::now();
        let run = run_simulation_on(&config, scheme, trace.clone());
        indexed_secs = indexed_secs.min(t1.elapsed().as_secs_f64());
        indexed = Some(run);
    }
    let (linear, indexed) = (linear.expect("reps >= 1"), indexed.expect("reps >= 1"));

    // Fleet-scale differential: the index must route every batch to the
    // worker the linear scan would have picked.
    assert_eq!(
        golden::digest(&linear),
        golden::digest(&indexed),
        "{policy} @ {workers} workers: indexed run diverged from the linear reference"
    );
    assert!(
        indexed.metrics.count(Class::All) > 0,
        "{policy} @ {workers} workers: the cell recorded no requests"
    );
    let summarize = |r: &SimulationResult| (r.stats.dispatch_batches, r.stats.dispatch_scan_visits);
    let (batches, linear_visits) = summarize(&linear);
    let (indexed_batches, indexed_visits) = summarize(&indexed);
    assert_eq!(batches, indexed_batches, "dispatch counts diverged");

    CellRow {
        scheme: linear.scheme,
        policy,
        workers,
        requests,
        batches,
        linear_secs,
        indexed_secs,
        linear_visits,
        indexed_visits,
        index_updates: indexed.stats.index_updates,
        backlog_requeued: indexed.stats.backlog_requeued,
    }
}

fn pr5_json(setup: &PaperSetup, rows: &[CellRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"fleet_scale_dispatch\",\n");
    out.push_str("  \"baseline\": \"reference_dispatch (retained O(W) scans)\",\n");
    out.push_str(&format!(
        "  \"duration_secs\": {:.1},\n  \"seed\": {},\n",
        setup.duration_secs, setup.seed
    ));
    out.push_str("  \"cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"policy\": \"{}\", \"workers\": {}, \
             \"requests\": {}, \"batches\": {}, \
             \"linear_secs\": {:.6}, \"indexed_secs\": {:.6}, \"speedup\": {:.3}, \
             \"linear_visits_per_batch\": {:.3}, \"indexed_visits_per_batch\": {:.3}, \
             \"index_updates\": {}, \"backlog_requeued\": {}}}{}\n",
            r.scheme,
            r.policy,
            r.workers,
            r.requests,
            r.batches,
            r.linear_secs,
            r.indexed_secs,
            r.speedup(),
            r.linear_visits_per_batch(),
            r.indexed_visits_per_batch(),
            r.index_updates,
            r.backlog_requeued,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut args = std::env::args().skip(1);
    let setup = PaperSetup {
        duration_secs: args.next().and_then(|a| a.parse().ok()).unwrap_or(150.0),
        seed: args.next().and_then(|a| a.parse().ok()).unwrap_or(42),
    };
    let fleets: Vec<usize> = args
        .next()
        .unwrap_or_else(|| "8,32,128,512,2048".to_string())
        .split(',')
        .filter_map(|w| w.trim().parse().ok())
        .collect();
    banner(
        "bench_pr5",
        &format!(
            "{} s trace per cell, fleets {:?}, arrival rate scaled with fleet size",
            setup.duration_secs, fleets
        ),
    );

    let schemes: [(&dyn SchemeBuilder, &'static str); 2] = [
        (&ProteanBuilder::paper(), "load_balance"),
        (&Baseline::InflessLlama, "consolidate"),
    ];
    let mut rows = Vec::new();
    for &workers in &fleets {
        for (scheme, policy) in schemes {
            rows.push(run_cell(&setup, scheme, policy, workers));
            let r = rows.last().unwrap();
            println!(
                "  {} @ {:>3} workers: {:.2}s linear / {:.2}s indexed ({:.2}x), \
                 {:.1} -> {:.1} visits/batch",
                r.policy,
                r.workers,
                r.linear_secs,
                r.indexed_secs,
                r.speedup(),
                r.linear_visits_per_batch(),
                r.indexed_visits_per_batch(),
            );
        }
    }

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                r.workers.to_string(),
                r.requests.to_string(),
                r.batches.to_string(),
                format!("{:.2}", r.linear_secs),
                format!("{:.2}", r.indexed_secs),
                format!("{:.2}x", r.speedup()),
                format!("{:.1}", r.linear_visits_per_batch()),
                format!("{:.1}", r.indexed_visits_per_batch()),
            ]
        })
        .collect();
    table(
        &[
            "policy",
            "workers",
            "requests",
            "batches",
            "linear s",
            "indexed s",
            "speedup",
            "lin v/b",
            "idx v/b",
        ],
        &printable,
    );

    for r in &rows {
        // Deterministic acceptance: the scan-visit counters don't move
        // with host load, so they carry the hard assertions. The
        // load-balance baseline examines every worker per dispatch
        // (O(W) min_by_key); the index answers from the tournament-tree
        // root in ≤2 lookups regardless of fleet size (near-flat
        // per-request dispatch cost).
        if r.policy == "load_balance" {
            assert!(
                r.linear_visits_per_batch() >= r.workers as f64,
                "{} @ {}: linear baseline visited {:.1}/batch, expected >= W",
                r.policy,
                r.workers,
                r.linear_visits_per_batch()
            );
            assert!(
                r.indexed_visits_per_batch() <= 2.0,
                "{} @ {}: indexed visits {:.1}/batch not flat",
                r.policy,
                r.workers,
                r.indexed_visits_per_batch()
            );
        } else {
            // Consolidate's first-fit cursor never re-walks the prefix
            // the linear front scan pays on every dispatch.
            assert!(
                r.indexed_visits <= r.linear_visits,
                "{} @ {}: cursor visited more than the front scan",
                r.policy,
                r.workers
            );
        }
        // Wall-clock floor: the index must strictly win at fleet scale.
        // The full measured curve (1.8x @ 512 up to 3.8x @ 4096 on this
        // engine) lives in results/bench_pr5.json and DESIGN.md; only a
        // noise-robust floor is asserted so the benchmark stays green
        // on loaded hosts.
        if r.policy == "load_balance" && r.workers >= 512 {
            assert!(
                r.speedup() >= 1.2,
                "{} @ {} workers: speedup {:.2}x — index no longer wins at fleet scale",
                r.policy,
                r.workers,
                r.speedup()
            );
        }
    }

    let path = std::path::Path::new("results/bench_pr5.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create results/");
    }
    std::fs::write(path, pr5_json(&setup, &rows)).expect("write results/bench_pr5.json");
    println!("\nwrote {}", path.display());
}
