//! Shard-count invariance: sharding is a pure wall-clock optimisation,
//! so for ANY workload, seed, dispatch policy and shard count the
//! golden digest (counts, sorted-latency percentiles, cost,
//! utilization, lifecycle counters — floats compared as exact bit
//! patterns) must equal the one-shard run's, and the invariant auditor
//! must stay clean with the same sweep cadence.

use proptest::prelude::*;
use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::fault::ScriptedMarket;
use protean_cluster::{run_simulation, run_simulation_with_oracle, ClusterConfig, SchemeBuilder};
use protean_experiments::golden::digest;
use protean_models::{catalog, ModelId};
use protean_sim::{SimDuration, SimTime};
use protean_spot::{ProcurementPolicy, SpotAvailability};
use protean_trace::{TraceConfig, TraceShape};

fn any_vision_model() -> impl Strategy<Value = ModelId> {
    prop::sample::select(catalog().vision().map(|p| p.id).collect::<Vec<_>>())
}

/// Covers both dispatch policies: Molecule/PROTEAN are load-balancing,
/// INFless/Llama and GPUlet consolidate (first-fit with a batch cap).
fn scheme_for(idx: usize) -> Box<dyn SchemeBuilder> {
    match idx % 4 {
        0 => Box::new(Baseline::MoleculeBeta),
        1 => Box::new(Baseline::InflessLlama),
        2 => Box::new(Baseline::Gpulet),
        _ => Box::new(ProteanBuilder::paper()),
    }
}

fn quick_config(seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::paper_default();
    c.workers = 8;
    c.seed = seed;
    c.warmup = SimDuration::from_secs(5.0);
    c
}

fn quick_trace(model: ModelId, rps: f64, strict_fraction: f64) -> TraceConfig {
    TraceConfig {
        shape: TraceShape::constant(rps),
        duration: SimDuration::from_secs(15.0),
        strict_model: model,
        strict_fraction,
        be_pool: catalog().opposite_pool(model),
        be_rotation_period: SimDuration::from_secs(10.0),
        batch_arrivals: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Digest equality for shards ∈ {2, 4, 8} (threaded and inline)
    /// against one shard, across schemes of both dispatch policies,
    /// arbitrary seeds, rates and mixes.
    #[test]
    fn prop_digest_invariant_under_sharding(
        seed in 0u64..1000,
        model in any_vision_model(),
        rps in 200.0f64..2000.0,
        strict_fraction in 0.1f64..0.9,
        scheme_idx in 0usize..4,
        shards in prop::sample::select(vec![2usize, 4, 8]),
        threads in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let config = quick_config(seed);
        let trace = quick_trace(model, rps, strict_fraction);
        let scheme = scheme_for(scheme_idx);
        let sequential = run_simulation(&config, scheme.as_ref(), &trace);
        let mut sharded = config.clone();
        sharded.shards = shards;
        sharded.shard_threads = threads;
        let parallel = run_simulation(&sharded, scheme.as_ref(), &trace);
        prop_assert_eq!(digest(&sequential), digest(&parallel));
    }

    /// Same invariance through the scripted spot market: adversarial
    /// evictions, VM replacement, orphan re-dispatch and censoring all
    /// run on the coordinator, and the invariant auditor (which chains
    /// per-shard `DispatchIndex::verify_partition` views into its fleet
    /// sweep) must stay clean with the one-shard sweep count.
    #[test]
    fn prop_digest_invariant_under_sharded_faults(
        seed in 0u64..1000,
        evict_worker in 0usize..3,
        evict_at_secs in 6.0f64..20.0,
        lead_secs in 1.0f64..30.0,
        shards in prop::sample::select(vec![2usize, 3]),
    ) {
        let mut config = quick_config(seed);
        config.workers = 3;
        config.procurement = ProcurementPolicy::Hybrid;
        config.availability = SpotAvailability::Low;
        config.revocation_check = SimDuration::from_secs(5.0);
        config.vm_startup = SimDuration::from_secs(5.0);
        config.procurement_retry = SimDuration::from_secs(5.0);
        config.audit = true;
        let trace = quick_trace(ModelId::ResNet50, 300.0, 0.5);
        let script = || {
            ScriptedMarket::new().evict(
                evict_worker,
                SimTime::from_secs(evict_at_secs),
                SimDuration::from_secs(lead_secs),
            )
        };
        let mut market = script();
        let sequential =
            run_simulation_with_oracle(&config, &ProteanBuilder::paper(), &trace, &mut market);
        let mut sharded = config.clone();
        sharded.shards = shards;
        sharded.shard_threads = 2;
        let mut market = script();
        let parallel =
            run_simulation_with_oracle(&sharded, &ProteanBuilder::paper(), &trace, &mut market);
        prop_assert_eq!(digest(&sequential), digest(&parallel));
        prop_assert!(parallel.audit.is_clean(), "{:?}", parallel.audit.violations);
        prop_assert!(parallel.audit.checks > 0);
        prop_assert_eq!(sequential.audit.checks, parallel.audit.checks);
    }

    /// Epoch coarsening is a pure elision of provably-empty phases, so
    /// the digest must be invariant not only in the shard count but in
    /// the coarsening cap: per-arrival (`max_epoch_arrivals = 1`),
    /// lightly coarsened and fully coarsened runs of the same cell must
    /// all reproduce the one-shard digest, across schemes of both
    /// dispatch policies, seeds, rates and mixes — and the extended
    /// counter triad must reconcile on every arm, one shard included.
    #[test]
    fn prop_digest_invariant_under_epoch_coarsening(
        seed in 0u64..1000,
        model in any_vision_model(),
        rps in 200.0f64..2000.0,
        strict_fraction in 0.1f64..0.9,
        scheme_idx in 0usize..4,
        shards in prop::sample::select(vec![2usize, 4, 8]),
        cap in prop::sample::select(vec![1u64, 4, 64]),
    ) {
        let config = quick_config(seed);
        let trace = quick_trace(model, rps, strict_fraction);
        let scheme = scheme_for(scheme_idx);
        let sequential = run_simulation(&config, scheme.as_ref(), &trace);
        let mut sharded = config.clone();
        sharded.shards = shards;
        sharded.shard_threads = 2;
        sharded.max_epoch_arrivals = cap;
        let parallel = run_simulation(&sharded, scheme.as_ref(), &trace);
        prop_assert_eq!(digest(&sequential), digest(&parallel));
        prop_assert_eq!(parallel.stats.expiries, sequential.stats.expiries);
        for arm in [&sequential, &parallel] {
            prop_assert_eq!(
                arm.stats.epochs + arm.stats.coalesced_arrivals + arm.stats.coalesced_expiries,
                arm.stats.arrivals + arm.stats.expiries
            );
            prop_assert_eq!(arm.stats.run_cutoffs.total(), arm.stats.epochs);
        }
        if cap == 1 {
            // Every dispatch event is a singleton run.
            prop_assert_eq!(
                parallel.stats.epochs,
                parallel.stats.arrivals + parallel.stats.expiries
            );
            prop_assert_eq!(parallel.stats.coalesced_arrivals, 0);
            prop_assert_eq!(parallel.stats.coalesced_expiries, 0);
        }
    }

    /// Coarsening under scripted spot evictions with the auditor on:
    /// the coarsened and per-arrival arms must agree with each other
    /// bit for bit AND sweep the invariant auditor the same number of
    /// times — per-arrival audit opportunities happen *inside* runs, so
    /// coalescing must not change the sweep cadence.
    #[test]
    fn prop_coarsening_preserves_audit_cadence_under_faults(
        seed in 0u64..1000,
        evict_worker in 0usize..3,
        evict_at_secs in 6.0f64..20.0,
        lead_secs in 1.0f64..30.0,
        shards in prop::sample::select(vec![2usize, 3]),
    ) {
        let mut config = quick_config(seed);
        config.workers = 3;
        config.procurement = ProcurementPolicy::Hybrid;
        config.availability = SpotAvailability::Low;
        config.revocation_check = SimDuration::from_secs(5.0);
        config.vm_startup = SimDuration::from_secs(5.0);
        config.procurement_retry = SimDuration::from_secs(5.0);
        config.audit = true;
        config.shards = shards;
        config.shard_threads = 2;
        let trace = quick_trace(ModelId::ResNet50, 300.0, 0.5);
        let script = || {
            ScriptedMarket::new().evict(
                evict_worker,
                SimTime::from_secs(evict_at_secs),
                SimDuration::from_secs(lead_secs),
            )
        };
        let mut per_arrival_cfg = config.clone();
        per_arrival_cfg.max_epoch_arrivals = 1;
        let mut market = script();
        let per_arrival =
            run_simulation_with_oracle(&per_arrival_cfg, &ProteanBuilder::paper(), &trace, &mut market);
        let mut coarse_cfg = config.clone();
        coarse_cfg.max_epoch_arrivals = 64;
        let mut market = script();
        let coarse =
            run_simulation_with_oracle(&coarse_cfg, &ProteanBuilder::paper(), &trace, &mut market);
        prop_assert_eq!(digest(&per_arrival), digest(&coarse));
        prop_assert!(per_arrival.audit.is_clean(), "{:?}", per_arrival.audit.violations);
        prop_assert!(coarse.audit.is_clean(), "{:?}", coarse.audit.violations);
        prop_assert!(coarse.audit.checks > 0);
        prop_assert_eq!(per_arrival.audit.checks, coarse.audit.checks);
        for arm in [&per_arrival, &coarse] {
            prop_assert_eq!(
                arm.stats.epochs + arm.stats.coalesced_arrivals + arm.stats.coalesced_expiries,
                arm.stats.arrivals + arm.stats.expiries
            );
            prop_assert_eq!(arm.stats.run_cutoffs.total(), arm.stats.epochs);
        }
    }
}
