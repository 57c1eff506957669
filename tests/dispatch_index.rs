//! Differential tests for the O(log W) dispatcher index.
//!
//! The index must be observationally identical to the linear scans it
//! replaced. Two layers prove it: a property test drives a raw
//! [`DispatchIndex`] through randomized eviction/reconfig/boot/load
//! interleavings and cross-checks every query against a linear-scan
//! reference model, and full-simulation tests run the engine with
//! `reference_dispatch` on and off, at one shard and at four, over
//! spot-faulted fleets and require bit-identical digests (with the
//! auditor's index-coherence sweep riding along). The four-shard
//! reference arm is the linear oracle under sharding: a global-order
//! fleet scan across shard cores against the cross-shard index
//! reduction.

use proptest::prelude::*;
use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::{
    run_simulation_with_oracle, ClusterConfig, DispatchIndex, SchemeBuilder, ScriptedMarket,
};
use protean_experiments::golden;
use protean_models::ModelId;
use protean_sim::{SimDuration, SimTime};
use protean_spot::{ProcurementPolicy, SpotAvailability};
use protean_trace::{TraceConfig, TraceShape};

/// The linear-scan reference: per-slot dispatch state mirroring what
/// the engine's retained `reference_target` scans read.
#[derive(Debug, Clone, Copy)]
struct Slot {
    routable: bool,
    accepting: bool,
    outstanding: u64,
}

/// `min_by_key((outstanding, idx))` over eligible slots — the original
/// load-balance scan.
fn linear_least_loaded(slots: &[Slot], need_accepting: bool) -> Option<usize> {
    slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.routable && (!need_accepting || s.accepting))
        .min_by_key(|(idx, s)| (s.outstanding, *idx))
        .map(|(idx, _)| idx)
}

/// `find(routable && accepting && outstanding < cap)` — the original
/// consolidate scan.
fn linear_first_fit(slots: &[Slot], cap: u64) -> Option<usize> {
    slots
        .iter()
        .position(|s| s.routable && s.accepting && s.outstanding < cap)
}

/// First-fit caps representative of `cap_batches × batch_size` products.
const CAPS: [u64; 4] = [1, 8, 80, 320];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of the engine's mutation points — dispatch
    /// load, completions, eviction notice, final eviction, VM install,
    /// reconfig drain/complete — must leave every index query equal to
    /// the linear reference, including the first-fit root descent.
    #[test]
    fn prop_index_matches_linear_reference(
        ops in prop::collection::vec((0usize..8, 0u32..6, 1u64..40), 1..120),
    ) {
        let n = 8;
        let mut slots = vec![
            Slot { routable: true, accepting: true, outstanding: 0 };
            n
        ];
        let mut index = DispatchIndex::new(n);
        for (idx, s) in slots.iter().enumerate() {
            index.refresh(idx, s.routable, s.accepting, s.outstanding);
        }
        for (w, kind, amount) in ops {
            let s = &mut slots[w];
            match kind {
                // Dispatch: the engine only adds load to routable slots.
                0 => {
                    if s.routable {
                        s.outstanding += amount;
                    }
                }
                // Batch completion.
                1 => s.outstanding = s.outstanding.saturating_sub(amount),
                // Eviction notice: no longer routable, load still held.
                2 => s.routable = false,
                // Final eviction: the drain zeroes outstanding.
                3 => {
                    s.routable = false;
                    s.outstanding = 0;
                }
                // Replacement VM installs with a fresh accepting GPU.
                4 => {
                    s.routable = true;
                    s.accepting = true;
                    s.outstanding = 0;
                }
                // Reconfiguration drain/complete toggles accepting.
                _ => s.accepting = !s.accepting,
            }
            let s = slots[w];
            index.refresh(w, s.routable, s.accepting, s.outstanding);

            prop_assert_eq!(
                index.least_loaded_accepting(),
                linear_least_loaded(&slots, true)
            );
            prop_assert_eq!(
                index.least_loaded_routable(),
                linear_least_loaded(&slots, false)
            );
            prop_assert_eq!(index.any_routable(), slots.iter().any(|s| s.routable));
            for cap in CAPS {
                let mut visits = 0;
                prop_assert_eq!(
                    index.first_fit(cap, &mut visits),
                    linear_first_fit(&slots, cap),
                    "first-fit diverged at cap {}", cap
                );
            }
        }
    }
}

/// A spot-faulted cluster config for the full-run differential.
fn faulted_config(workers: usize, seed: u64, reference: bool, shards: usize) -> ClusterConfig {
    let mut config = ClusterConfig::small_test();
    config.workers = workers;
    config.seed = seed;
    config.procurement = ProcurementPolicy::Hybrid;
    config.availability = SpotAvailability::Low; // unused: scripted oracle
    config.revocation_check = SimDuration::from_secs(5.0);
    config.vm_startup = SimDuration::from_secs(5.0);
    config.procurement_retry = SimDuration::from_secs(5.0);
    config.audit = true;
    config.reference_dispatch = reference;
    config.shards = shards;
    config.shard_threads = shards.min(2);
    config
}

fn faulted_trace() -> TraceConfig {
    TraceConfig {
        shape: TraceShape::constant(250.0),
        duration: SimDuration::from_secs(40.0),
        strict_model: ModelId::ResNet50,
        strict_fraction: 0.5,
        be_pool: vec![ModelId::MobileNet],
        be_rotation_period: SimDuration::from_secs(20.0),
        batch_arrivals: false,
    }
}

/// Runs the same scripted-eviction simulation with the linear reference
/// and with the index, each at one shard and at four, returning the
/// four digests in the order (linear S=1, indexed S=1, linear S=4,
/// indexed S=4) and asserting the audited runs stayed clean — the
/// index-coherence invariant is part of the sweep.
fn differential_run(
    scheme: &dyn SchemeBuilder,
    workers: usize,
    seed: u64,
    evictions: &[(usize, f64, f64)],
) -> [String; 4] {
    let run = |reference: bool, shards: usize| {
        let config = faulted_config(workers, seed, reference, shards);
        let mut market = ScriptedMarket::new();
        for &(worker, at, lead) in evictions {
            market = market.evict(worker, SimTime::from_secs(at), SimDuration::from_secs(lead));
        }
        let result = run_simulation_with_oracle(&config, &scheme, &faulted_trace(), &mut market);
        assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
        golden::digest(&result)
    };
    [run(true, 1), run(false, 1), run(true, 4), run(false, 4)]
}

/// Load-balance dispatch (PROTEAN): indexed and linear runs must be
/// bit-identical through evictions, replacements and reconfigurations.
#[test]
fn load_balance_digests_match_linear_reference_under_faults() {
    let evictions = [(0, 6.0, 4.0), (2, 15.0, 8.0), (1, 24.0, 3.0)];
    for seed in [7, 42, 1234] {
        let arms = differential_run(&ProteanBuilder::paper(), 4, seed, &evictions);
        for arm in &arms[1..] {
            assert_eq!(&arms[0], arm, "seed {seed} diverged");
        }
    }
}

/// Consolidate dispatch (INFless/Llama): the first-fit descent must
/// reproduce the linear front scan exactly, including across evictions
/// that re-open saturated low-index slots.
#[test]
fn consolidate_digests_match_linear_reference_under_faults() {
    let evictions = [(0, 5.0, 5.0), (1, 18.0, 6.0)];
    for seed in [7, 42, 1234] {
        let arms = differential_run(&Baseline::InflessLlama, 4, seed, &evictions);
        for arm in &arms[1..] {
            assert_eq!(&arms[0], arm, "seed {seed} diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized fleets: arbitrary eviction schedules over 2–6 workers
    /// under both dispatch policies must digest identically with the
    /// index on and off, at one shard and at four.
    #[test]
    fn prop_full_run_digests_match_under_random_faults(
        workers in 2usize..6,
        seed in 1u64..500,
        consolidate in prop::bool::ANY,
        schedule in prop::collection::vec((0usize..6, 2.0f64..30.0, 1.0f64..10.0), 0..4),
    ) {
        let evictions: Vec<(usize, f64, f64)> = schedule
            .into_iter()
            .map(|(w, at, lead)| (w % workers, at, lead))
            .collect();
        let scheme: Box<dyn SchemeBuilder> = if consolidate {
            Box::new(Baseline::InflessLlama)
        } else {
            Box::new(ProteanBuilder::paper())
        };
        let arms = differential_run(&*scheme, workers, seed, &evictions);
        for arm in &arms[1..] {
            prop_assert_eq!(&arms[0], arm);
        }
    }
}

/// The `Consolidate` policy's headroom test is strict: a worker whose
/// outstanding equals `cap_batches × batch_size` is full and must be
/// passed over, while one request below the cap still accepts — at the
/// boundary, index and linear scan agree slot by slot.
#[test]
fn consolidate_descent_honors_cap_exactly_at_the_boundary() {
    let cap = 80; // e.g. cap_batches 10 × batch size 8
    let mut index = DispatchIndex::new(3);
    let mut slots = vec![
        Slot {
            routable: true,
            accepting: true,
            outstanding: cap,
        };
        3
    ];
    slots[1].outstanding = cap - 1;
    for (idx, s) in slots.iter().enumerate() {
        index.refresh(idx, s.routable, s.accepting, s.outstanding);
    }
    let mut visits = 0;
    // Worker 0 sits exactly at the cap: full. Worker 1 is one below.
    assert_eq!(index.first_fit(cap, &mut visits), Some(1));
    assert_eq!(linear_first_fit(&slots, cap), Some(1));
    // One more request saturates worker 1 too.
    slots[1].outstanding = cap;
    index.refresh(1, true, true, cap);
    let mut visits = 0;
    assert_eq!(index.first_fit(cap, &mut visits), None);
    assert_eq!(linear_first_fit(&slots, cap), None);
    // A single completion on worker 0 re-opens it: the next descent
    // lands back on the lowest index.
    slots[0].outstanding = cap - 1;
    index.refresh(0, true, true, cap - 1);
    let mut visits = 0;
    assert_eq!(index.first_fit(cap, &mut visits), Some(0));
    assert_eq!(linear_first_fit(&slots, cap), Some(0));
}
