//! Outside-in probes: forwarding wrappers around the simulator's public
//! traits that count and time every call into a layer, plus a counting
//! allocator for the traced binary.
//!
//! Probes only forward, so a probed run makes exactly the decisions of
//! an unprobed one; the benchmark checks that the two digests agree.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use protean_cluster::{
    BatchView, ClusterConfig, DispatchPolicy, Placement, PlacementCtx, ReconfigCtx, Scheme,
    SchemeBuilder,
};
use protean_gpu::{Geometry, SharingMode};
use protean_sim::{SimDuration, SimTime};
use protean_spot::{SpotMarket, SpotOracle};

/// Per-scheme-instance call counts and nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounts {
    /// `Scheme::place` calls.
    pub place_calls: u64,
    /// `place` calls that returned `None` (batch left queued).
    pub place_none: u64,
    /// Nanoseconds inside `place`.
    pub place_ns: u64,
    /// `Scheme::reconfigure` calls.
    pub reconfigure_calls: u64,
    /// `reconfigure` calls that asked for a new geometry.
    pub reconfigure_changes: u64,
    /// Nanoseconds inside `reconfigure`.
    pub reconfigure_ns: u64,
    /// `SchemeBuilder::build` calls.
    pub build_calls: u64,
    /// Nanoseconds inside `build`.
    pub build_ns: u64,
}

/// Shared totals the per-instance counts flush into. Each scheme
/// instance counts privately and adds its counts once, on drop, so shard
/// threads never contend on these atomics while the engine runs.
#[derive(Debug, Default)]
pub struct CoreTotals([AtomicU64; 8]);

impl CoreTotals {
    fn add(&self, c: &CoreCounts) {
        for (slot, v) in self.0.iter().zip(c.fields()) {
            slot.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// The totals so far.
    pub fn get(&self) -> CoreCounts {
        let v: Vec<u64> = self.0.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        CoreCounts {
            place_calls: v[0],
            place_none: v[1],
            place_ns: v[2],
            reconfigure_calls: v[3],
            reconfigure_changes: v[4],
            reconfigure_ns: v[5],
            build_calls: v[6],
            build_ns: v[7],
        }
    }
}

impl CoreCounts {
    fn fields(&self) -> [u64; 8] {
        [
            self.place_calls,
            self.place_none,
            self.place_ns,
            self.reconfigure_calls,
            self.reconfigure_changes,
            self.reconfigure_ns,
            self.build_calls,
            self.build_ns,
        ]
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A [`SchemeBuilder`] that builds probed schemes around `inner`'s.
pub struct ProbedBuilder<'a> {
    inner: &'a dyn SchemeBuilder,
    totals: Arc<CoreTotals>,
}

impl<'a> ProbedBuilder<'a> {
    /// Wraps `inner`; read the counts from [`ProbedBuilder::totals`]
    /// after the run has returned (and so dropped every scheme).
    pub fn new(inner: &'a dyn SchemeBuilder) -> Self {
        ProbedBuilder {
            inner,
            totals: Arc::default(),
        }
    }

    /// The shared totals.
    pub fn totals(&self) -> CoreCounts {
        self.totals.get()
    }
}

impl SchemeBuilder for ProbedBuilder<'_> {
    fn build(&self, worker: usize) -> Box<dyn Scheme> {
        let t0 = Instant::now();
        let inner = self.inner.build(worker);
        let counts = CoreCounts {
            build_calls: 1,
            build_ns: ns_since(t0),
            ..CoreCounts::default()
        };
        Box::new(ProbedScheme {
            inner,
            counts,
            totals: Arc::clone(&self.totals),
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dispatch_policy(&self) -> DispatchPolicy {
        self.inner.dispatch_policy()
    }
}

/// A [`Scheme`] that forwards every hook to `inner`, counting and
/// timing `place` and `reconfigure`.
struct ProbedScheme {
    inner: Box<dyn Scheme>,
    counts: CoreCounts,
    totals: Arc<CoreTotals>,
}

impl Scheme for ProbedScheme {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_geometry(&self) -> Geometry {
        self.inner.initial_geometry()
    }

    fn sharing_mode(&self) -> SharingMode {
        self.inner.sharing_mode()
    }

    fn reorders(&self) -> bool {
        self.inner.reorders()
    }

    fn place(&mut self, ctx: &PlacementCtx<'_>, batch: &BatchView) -> Option<Placement> {
        let t0 = Instant::now();
        let placed = self.inner.place(ctx, batch);
        self.counts.place_ns += ns_since(t0);
        self.counts.place_calls += 1;
        self.counts.place_none += u64::from(placed.is_none());
        placed
    }

    fn reconfigure(&mut self, ctx: &ReconfigCtx<'_>) -> Option<Geometry> {
        let t0 = Instant::now();
        let geometry = self.inner.reconfigure(ctx);
        self.counts.reconfigure_ns += ns_since(t0);
        self.counts.reconfigure_calls += 1;
        self.counts.reconfigure_changes += u64::from(geometry.is_some());
        geometry
    }
}

impl Drop for ProbedScheme {
    fn drop(&mut self) {
        self.totals.add(&self.counts);
    }
}

/// Spot-oracle call counts and nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpotCounts {
    /// Revocation checks rolled.
    pub revocation_rolls: u64,
    /// Rolls that produced an eviction notice.
    pub revocations: u64,
    /// Spot-acquisition requests rolled.
    pub acquire_calls: u64,
    /// Acquisitions granted.
    pub acquire_granted: u64,
    /// Nanoseconds inside the oracle.
    pub oracle_ns: u64,
}

/// A [`SpotOracle`] that delegates to the production [`SpotMarket`],
/// counting and timing each roll.
pub struct ProbedOracle {
    inner: SpotMarket,
    /// Counts so far.
    pub counts: SpotCounts,
}

impl ProbedOracle {
    /// The run's production market (see [`crate::market`]), wrapped.
    /// Building it counts as time inside the oracle, so the layer's time
    /// is never exactly zero, even on a fleet that never rolls.
    pub fn new(config: &ClusterConfig) -> Self {
        let t0 = Instant::now();
        let inner = crate::market(config);
        ProbedOracle {
            inner,
            counts: SpotCounts {
                oracle_ns: ns_since(t0),
                ..SpotCounts::default()
            },
        }
    }
}

impl SpotOracle for ProbedOracle {
    fn roll_revocation(&mut self, now: SimTime, worker: usize) -> Option<SimDuration> {
        let t0 = Instant::now();
        let notice = SpotOracle::roll_revocation(&mut self.inner, now, worker);
        self.counts.oracle_ns += ns_since(t0);
        self.counts.revocation_rolls += 1;
        self.counts.revocations += u64::from(notice.is_some());
        notice
    }

    fn try_acquire_spot(&mut self, now: SimTime, worker: usize) -> bool {
        let t0 = Instant::now();
        let granted = SpotOracle::try_acquire_spot(&mut self.inner, now, worker);
        self.counts.oracle_ns += ns_since(t0);
        self.counts.acquire_calls += 1;
        self.counts.acquire_granted += u64::from(granted);
        granted
    }
}

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Pass-through [`System`] allocator counting allocation calls and
/// bytes. Only the traced binary installs it, so untimed counting never
/// touches the end-to-end runs.
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` unchanged; the counters are
// relaxed statistics that never influence an allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// `(allocation calls, bytes requested)` so far; zero unless the binary
/// installed [`CountingAlloc`].
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
