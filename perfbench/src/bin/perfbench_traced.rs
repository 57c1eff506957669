//! The traced child process: one run of a workload with every public
//! layer boundary probed, reporting per-layer counts, times and spans.
//!
//! Started by the `perfbench` parent process as
//! `perfbench_traced --role traced --workload <name> --seed <n> --total <n> --measured <n>`,
//! and runs the first simulation of that seed's timed run.
//! This binary alone installs the counting allocator, so allocation
//! counting never slows an end-to-end run.

use std::time::Instant;

use perfbench::probe::{alloc_counts, CountingAlloc, ProbedBuilder, ProbedOracle};
use perfbench::record::Record;
use perfbench::{
    check_run, digest, simulate_protean, strict_slo_ms, sub_seed, Args, Pool, SimMetrics,
};
use protean::ProteanBuilder;
use protean_cluster::run_stream_with_oracle;
use protean_sim::SimTime;
use protean_spot::{PricingTable, VmLedger, VmTier};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    if let Err(e) = traced(&Args::from_env()) {
        eprintln!("perfbench_traced: {e}");
        std::process::exit(2);
    }
}

fn traced(args: &Args) -> Result<(), String> {
    if args.value("--role") != Some("traced") {
        return Err("expected --role traced".into());
    }
    let clock = Instant::now();
    let (workload, seed, arm) = args.cell()?;
    let drawn = *args.drawn()?.first().ok_or("no trace counts passed")?;
    let config = workload.config(sub_seed(seed, 0), arm);
    let trace = workload.trace();
    let mut rec = Record::new();
    let span = |rec: &mut Record, name: &str, start: f64| {
        let end = clock.elapsed().as_secs_f64();
        rec.put(&format!("span.{name}.start_s"), start);
        rec.put(&format!("span.{name}.end_s"), end);
        end - start
    };

    let t = clock.elapsed().as_secs_f64();
    std::hint::black_box(simulate_protean(&config, &workload.setup_trace()));
    let setup_s = span(&mut rec, "setup", t);

    let protean = ProteanBuilder::paper();
    let builder = ProbedBuilder::new(&protean);
    let mut oracle = ProbedOracle::new(&config);
    let (calls0, bytes0) = alloc_counts();
    let t = clock.elapsed().as_secs_f64();
    let result = run_stream_with_oracle(&config, &builder, &trace, &mut oracle);
    let run_s = span(&mut rec, "run", t);
    let (calls1, bytes1) = alloc_counts();

    let t = clock.elapsed().as_secs_f64();
    let sim = SimMetrics::of(
        &Pool::of(&result, drawn.total),
        strict_slo_ms(&config, &trace),
    );
    let summary_s = span(&mut rec, "summary", t);

    // The ledger the engine keeps, replayed on a fresh public VmLedger:
    // one VM per worker plus one replacement per eviction, opened then
    // closed.
    let vms = config.workers as u64 + result.cost.evictions;
    let t = clock.elapsed().as_secs_f64();
    let mut ledger = VmLedger::new(PricingTable::paper_table3(), config.provider);
    let ids: Vec<_> = (0..vms)
        .map(|_| {
            let id = ledger.allocate_id();
            ledger.open(id, VmTier::OnDemand, SimTime::ZERO);
            id
        })
        .collect();
    for id in ids {
        ledger.close(id, SimTime::ZERO);
    }
    std::hint::black_box(ledger.total_cost(SimTime::ZERO));
    let ledger_s = span(&mut rec, "ledger", t);

    let core = builder.totals();
    let spot = oracle.counts;
    let s = &result.stats;
    let requests = drawn.total.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let secs = |ns: u64| ns as f64 * 1e-9;
    let layers: [(&str, f64); 34] = [
        ("core.place_calls", core.place_calls as f64),
        (
            "core.place_none_frac",
            ratio(core.place_none, core.place_calls),
        ),
        ("core.place_s", secs(core.place_ns)),
        (
            "core.place_ns_per_call",
            ratio(core.place_ns, core.place_calls),
        ),
        ("core.reconfigure_calls", core.reconfigure_calls as f64),
        ("core.reconfigure_changes", core.reconfigure_changes as f64),
        ("core.reconfigure_s", secs(core.reconfigure_ns)),
        ("core.build_s", secs(core.build_ns)),
        ("spot.ledger_s", ledger_s),
        ("spot.revocation_rolls", spot.revocation_rolls as f64),
        ("spot.revocations", spot.revocations as f64),
        ("spot.acquire_calls", spot.acquire_calls as f64),
        (
            "spot.acquire_granted_frac",
            ratio(spot.acquire_granted, spot.acquire_calls),
        ),
        ("spot.oracle_s", secs(spot.oracle_ns)),
        ("spot.evictions", result.cost.evictions as f64),
        (
            "cluster.events_per_request",
            s.events_popped as f64 / requests,
        ),
        (
            "cluster.scan_visits_per_batch",
            ratio(s.dispatch_scan_visits, s.dispatch_batches),
        ),
        (
            "cluster.index_updates_per_batch",
            ratio(s.index_updates, s.dispatch_batches),
        ),
        (
            "cluster.stale_finish_frac",
            ratio(s.stale_finish_events, s.finish_events_pushed),
        ),
        ("cluster.peak_heap_len", s.peak_heap_len as f64),
        ("cluster.backlog_requeued", s.backlog_requeued as f64),
        ("cluster.cold_starts", result.cold_starts as f64),
        ("cluster.reconfigs", result.reconfigs as f64),
        ("cluster.sharded.epochs", s.epochs as f64),
        (
            "cluster.sharded.epochs_per_dispatch_event",
            ratio(s.epochs, s.arrivals + s.expiries),
        ),
        (
            "cluster.sharded.coalesced_arrivals",
            s.coalesced_arrivals as f64,
        ),
        (
            "cluster.sharded.coalesced_expiries",
            s.coalesced_expiries as f64,
        ),
        (
            "cluster.sharded.cut_shard_conflict",
            s.run_cutoffs.shard_conflict as f64,
        ),
        (
            "cluster.sharded.cut_expiry_shard_conflict",
            s.run_cutoffs.expiry_shard_conflict as f64,
        ),
        (
            "cluster.sharded.cut_serial_event",
            s.run_cutoffs.serial_event as f64,
        ),
        (
            "cluster.sharded.cut_max_arrivals",
            s.run_cutoffs.max_arrivals as f64,
        ),
        (
            "cluster.sharded.serial_cut_share",
            ratio(s.run_cutoffs.serial_event, s.run_cutoffs.total()),
        ),
        (
            "alloc.calls_per_request",
            (calls1 - calls0) as f64 / requests,
        ),
        (
            "alloc.bytes_per_request",
            (bytes1 - bytes0) as f64 / requests,
        ),
    ];
    for (name, v) in layers {
        rec.put(name, v);
    }
    rec.put("metrics.summary_s", summary_s);
    rec.put("span.setup_s", setup_s);
    rec.put("span.run_s", run_s);
    rec.put("events_popped", s.events_popped);
    rec.put("recorded", sim.recorded);
    rec.put("censored", sim.censored);
    rec.put("digest", digest(&result, &sim));
    for e in check_run(&drawn, &sim, &result, &config) {
        rec.put("error", e);
    }
    rec.print();
    Ok(())
}
