//! Checks of the benchmark's own machinery: the aggregate-mode SLO
//! figure, the probes, the output checks, and agreement with
//! `BENCHMARK.json`.

use perfbench::probe::{ProbedBuilder, ProbedOracle};
use perfbench::{
    check_run, digest, draw, quantile_ms, simulate_protean, strict_met, strict_slo_ms, Arm, Pool,
    SimMetrics, Workload, END_TO_END, PER_LAYER, REQ_PER_S_BOUND, WORKLOADS,
};
use protean::ProteanBuilder;
use protean_cluster::run_stream_with_oracle;
use protean_metrics::record::Class;

/// Width of one aggregate-mode histogram bucket: 128 per decade.
const BUCKET_RATIO: f64 = 1.0182;

/// A small cell with the per-worker load of the named workloads.
fn small(spot: bool, shards: usize) -> Workload {
    Workload {
        name: "small",
        workers: 16,
        shards,
        shard_threads: shards,
        sim_secs: 40.0,
        warmup_secs: 5.0,
        sims: 1,
        setups_per_sim: 1,
        spot,
        pinned_be_model: false,
    }
}

#[test]
fn histogram_figures_match_a_full_mode_twin_within_bucket_resolution() {
    let workload = small(false, 1);
    let config = workload.config(7, Arm::Base);
    let trace = workload.trace();
    let mut full_config = config.clone();
    full_config.aggregate_metrics = false;
    let aggregate = simulate_protean(&config, &trace);
    let full = simulate_protean(&full_config, &trace);

    let slo = strict_slo_ms(&config, &trace);
    let strict = full.metrics.latencies_ms(Class::Strict);
    let within = |limit: f64| strict.iter().filter(|&&l| l <= limit).count() as u64;
    let exact = within(slo);
    assert!(
        exact > 0 && exact < strict.len() as u64,
        "the twin must both meet and miss the SLO to test anything"
    );
    assert_eq!(aggregate.censored, 0);
    let estimate = strict_met(&aggregate.metrics, slo);
    assert!(
        within(slo / BUCKET_RATIO) <= estimate && estimate <= within(slo * BUCKET_RATIO),
        "histogram count {estimate} outside the bucket around the exact {exact}"
    );

    // Interpolated quantiles stay within one bucket of the exact ones.
    let mut sorted = strict.clone();
    sorted.sort_by(f64::total_cmp);
    for q in [0.5, 0.99] {
        let exact_q = sorted[((sorted.len() as f64 * q).ceil() as usize).max(1) - 1];
        let estimate_q = quantile_ms(&aggregate.metrics, Class::Strict, q);
        assert!(
            (estimate_q / exact_q).ln().abs() <= BUCKET_RATIO.ln(),
            "q{q}: {estimate_q} ms against the exact {exact_q} ms"
        );
    }

    let sim = SimMetrics::of(&Pool::of(&aggregate, 1), slo);
    let exact_pct = 100.0 * exact as f64 / strict.len() as f64;
    let bucket_pct = 100.0 * (within(slo * BUCKET_RATIO) - within(slo / BUCKET_RATIO)) as f64
        / strict.len() as f64;
    assert!((sim.strict_slo_pct - exact_pct).abs() <= bucket_pct);
    // Why the benchmark cannot use the record-based query in aggregate
    // mode: it sees no records and reports full compliance.
    let slo_fn = |_| protean_sim::SimDuration::from_millis(slo);
    assert_eq!(aggregate.metrics.slo_compliance(&slo_fn), 1.0);
}

#[test]
fn probed_runs_match_unprobed_digests_and_count_every_call() {
    for (spot, shards) in [(false, 1), (true, 2)] {
        let workload = small(spot, shards);
        let config = workload.config(3, Arm::Base);
        let trace = workload.trace();
        let drawn = draw(&config, &trace);
        let slo = strict_slo_ms(&config, &trace);
        let plain = simulate_protean(&config, &trace);
        let plain_sim = SimMetrics::of(&Pool::of(&plain, drawn.total), slo);

        let protean = ProteanBuilder::paper();
        let builder = ProbedBuilder::new(&protean);
        let mut oracle = ProbedOracle::new(&config);
        let probed = run_stream_with_oracle(&config, &builder, &trace, &mut oracle);
        let probed_sim = SimMetrics::of(&Pool::of(&probed, drawn.total), slo);

        assert_eq!(digest(&plain, &plain_sim), digest(&probed, &probed_sim));
        assert!(check_run(&drawn, &probed_sim, &probed, &config).is_empty());
        // Every scheme instance flushed its counts on drop.
        let core = builder.totals();
        assert_eq!(core.build_calls, workload.workers as u64);
        assert!(core.place_calls > 0 && core.reconfigure_calls > 0);
        assert_eq!(oracle.counts.acquire_calls > 0, spot);
        assert_eq!(oracle.counts.revocation_rolls > 0, spot);
    }
}

#[test]
fn a_warmup_that_swallows_the_run_fails_the_check() {
    let mut workload = small(false, 1);
    workload.warmup_secs = workload.sim_secs + 1.0;
    let config = workload.config(1, Arm::Base);
    let trace = workload.trace();
    let drawn = draw(&config, &trace);
    let result = simulate_protean(&config, &trace);
    let sim = SimMetrics::of(
        &Pool::of(&result, drawn.total),
        strict_slo_ms(&config, &trace),
    );
    let errors = check_run(&drawn, &sim, &result, &config);
    assert!(
        errors.iter().any(|e| e.contains("warmup swallows")),
        "{errors:?}"
    );
}

#[test]
fn the_slower_arms_keep_every_simulated_metric() {
    for (spot, shards, arm) in [
        (false, 1, Arm::ReferenceDispatch),
        (true, 2, Arm::PerArrival),
    ] {
        let workload = small(spot, shards);
        let trace = workload.trace();
        let run = |arm| {
            let config = workload.config(5, arm);
            let result = simulate_protean(&config, &trace);
            let sim = SimMetrics::of(&Pool::of(&result, 1), strict_slo_ms(&config, &trace));
            digest(&result, &sim)
        };
        assert_eq!(run(Arm::Base), run(arm));
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let entry = |name: &str| {
        let at = json
            .find(&format!("\"name\": \"{name}\""))
            .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
        &json[at..at + json[at..].find('}').expect("entry closes")]
    };
    for w in &WORKLOADS {
        entry(w.name);
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            entry(name).contains(&format!("\"unit\": \"{unit}\"")),
            "{name}: unit differs from {unit}"
        );
    }
    assert!(entry("req_per_s").contains(&format!("\"bound\": {REQ_PER_S_BOUND}")));
}
