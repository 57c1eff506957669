//! Per-worker-node state: VM binding, GPU, batch accumulators,
//! container pools and the (optionally strict-priority) scheduler queue.

use std::collections::{BTreeMap, VecDeque};

use protean_gpu::Gpu;
use protean_models::{Catalog, ModelId};
use protean_sim::{FastHashMap, SimTime};
use protean_spot::{VmId, VmTier};

use crate::batch::{Batch, BatchId};
use crate::container::Pool;
use crate::scheme::Scheme;

/// Availability of a worker slot with respect to its backing VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStatus {
    /// VM live, serving traffic.
    Up,
    /// Eviction notice received; finishing existing work, no new
    /// requests routed here. Reclaimed at `evict_at`.
    Evicting {
        /// When the provider reclaims the VM.
        evict_at: SimTime,
    },
    /// No backing VM (evicted and not yet replaced).
    Down,
}

/// A batch currently executing on a GPU slice, with everything needed
/// for the latency breakdown at completion.
#[derive(Debug, Clone)]
pub struct RunningBatch {
    /// The batch itself.
    pub batch: Batch,
    /// Slice index it runs on.
    pub slice: usize,
    /// When execution began (slice admission).
    pub exec_start: SimTime,
    /// Solo time on that slice (after any scheme scaling), ms.
    pub solo_on_slice_ms: f64,
    /// Solo time on the full GPU, ms ("min possible time").
    pub solo_7g_ms: f64,
}

/// Scheduler queue holding batches that have a container and await a
/// slice. When `reorders` is set, strict batches are always served
/// before best-effort ones (§4.1); within a class, order is FIFO.
#[derive(Debug, Default)]
pub struct SchedQueue {
    reorders: bool,
    strict: VecDeque<(u64, Batch)>,
    best_effort: VecDeque<(u64, Batch)>,
    seq: u64,
    /// Running total of queued best-effort batch memory, GB
    /// (Algorithm 1's `BE_mem` input).
    be_mem_gb: f64,
}

impl SchedQueue {
    /// Creates an empty queue with the given reordering policy.
    pub fn new(reorders: bool) -> Self {
        SchedQueue {
            reorders,
            ..SchedQueue::default()
        }
    }

    /// Enqueues a batch; `mem_gb` is its per-batch memory footprint.
    pub fn push(&mut self, batch: Batch, mem_gb: f64) {
        let seq = self.seq;
        self.seq += 1;
        if batch.strict {
            self.strict.push_back((seq, batch));
        } else {
            self.be_mem_gb += mem_gb;
            self.best_effort.push_back((seq, batch));
        }
    }

    /// The batches a placement pass may inspect, in service order. In
    /// reordering mode this is up to `depth` strict batches followed by
    /// up to `depth` best-effort batches — strict priority governs
    /// *service order*, but a blocked strict head must not prevent
    /// best-effort batches from using slices strict batches cannot take
    /// anyway.
    pub fn candidates(&self, depth: usize) -> Vec<&Batch> {
        let mut out: Vec<&Batch> = Vec::with_capacity(depth.min(self.len()));
        self.for_each_candidate(depth, |b| out.push(b));
        out
    }

    /// Visits the batches [`SchedQueue::candidates`] would return, in the
    /// same order, without allocating — the scheduler's placement loop
    /// calls this on every pass.
    pub fn for_each_candidate<'a>(&'a self, depth: usize, mut f: impl FnMut(&'a Batch)) {
        if self.reorders {
            for (_, b) in self.strict.iter().take(depth) {
                f(b);
            }
            for (_, b) in self.best_effort.iter().take(depth) {
                f(b);
            }
        } else {
            // FIFO across both classes: merge by sequence number.
            let mut visited = 0;
            let mut si = self.strict.iter().peekable();
            let mut bi = self.best_effort.iter().peekable();
            while visited < depth {
                match (si.peek(), bi.peek()) {
                    (Some((ss, sb)), Some((bs, bb))) => {
                        if ss < bs {
                            f(sb);
                            si.next();
                        } else {
                            f(bb);
                            bi.next();
                        }
                    }
                    (Some((_, sb)), None) => {
                        f(sb);
                        si.next();
                    }
                    (None, Some((_, bb))) => {
                        f(bb);
                        bi.next();
                    }
                    (None, None) => break,
                }
                visited += 1;
            }
        }
    }

    /// Removes the batch with `id`; `mem_gb` must match the value given
    /// at push time. Returns the batch if present.
    pub fn remove(&mut self, id: BatchId, mem_gb: f64) -> Option<Batch> {
        if let Some(pos) = self.strict.iter().position(|(_, b)| b.id == id) {
            return self.strict.remove(pos).map(|(_, b)| b);
        }
        if let Some(pos) = self.best_effort.iter().position(|(_, b)| b.id == id) {
            let removed = self.best_effort.remove(pos).map(|(_, b)| b);
            if removed.is_some() {
                self.be_mem_gb = (self.be_mem_gb - mem_gb).max(0.0);
            }
            return removed;
        }
        None
    }

    /// Total queued batches.
    pub fn len(&self) -> usize {
        self.strict.len() + self.best_effort.len()
    }

    /// `true` if no batches are queued.
    pub fn is_empty(&self) -> bool {
        self.strict.is_empty() && self.best_effort.is_empty()
    }

    /// Memory of queued best-effort batches, GB.
    pub fn be_mem_gb(&self) -> f64 {
        self.be_mem_gb
    }

    /// Drains every queued batch (eviction path).
    pub fn drain_all(&mut self) -> Vec<Batch> {
        self.be_mem_gb = 0.0;
        self.strict
            .drain(..)
            .chain(self.best_effort.drain(..))
            .map(|(_, b)| b)
            .collect()
    }

    /// Iterates every queued batch (both classes, no particular order);
    /// used by the audit layer's request-conservation sweep.
    pub fn iter_batches(&self) -> impl Iterator<Item = &Batch> {
        self.strict
            .iter()
            .chain(self.best_effort.iter())
            .map(|(_, b)| b)
    }
}

/// One worker node: a VM slot with one GPU and the serving pipeline.
pub struct Worker {
    /// Slot index in the cluster.
    pub idx: usize,
    /// The scheme instance making this worker's scheduling decisions.
    pub scheme: Box<dyn Scheme>,
    /// VM lifecycle status.
    pub status: WorkerStatus,
    /// Backing VM (id, tier) when up or evicting.
    pub vm: Option<(VmId, VmTier)>,
    /// Replacement VM that became ready while the old one drains.
    pub pending_vm: Option<(VmId, VmTier)>,
    /// The worker's GPU.
    pub gpu: Gpu,
    /// Bumped on every GPU rebuild (reconfiguration or VM replacement);
    /// stale completion events carry an older epoch.
    pub epoch: u64,
    /// Bumped only on VM replacement, never on reconfiguration.
    /// Container boots survive a MIG reconfig (containers live in host
    /// memory) but not a VM replacement, so `BootDone` events validate
    /// against this counter rather than `epoch`.
    pub vm_epoch: u64,
    /// Sealed batches waiting for a container, per model.
    pub wait_container: FastHashMap<ModelId, VecDeque<Batch>>,
    /// Container pools per model.
    pub pools: FastHashMap<ModelId, Pool>,
    /// Batches with containers awaiting slice placement.
    pub sched_queue: SchedQueue,
    /// Batches executing on the GPU.
    pub running: FastHashMap<BatchId, RunningBatch>,
    /// Requests assigned to this worker and not yet completed (load
    /// metric for the dispatcher).
    pub outstanding: u64,
    /// Batches dispatched here per model in the current monitor window
    /// (drives predictive container pre-provisioning). `BTreeMap` so the
    /// prewarm tick visits models in a deterministic order. The map is
    /// retained across monitor ticks with counts zeroed in place (never
    /// `mem::take`n), so its nodes are allocated once per model ever
    /// routed here rather than once per model per window; entries with
    /// a zero count are models idle since the last window.
    pub window_batches: BTreeMap<ModelId, u64>,
    /// EWMA of per-window batch arrivals per model.
    pub predicted_batches: BTreeMap<ModelId, protean_sim::Ewma>,
    /// Best-effort requests seen in the current monitor window.
    pub window_be: u64,
    /// Strict requests seen in the current monitor window.
    pub window_strict: u64,
    /// Most recent best-effort model routed here.
    pub last_be_model: Option<ModelId>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("idx", &self.idx)
            .field("status", &self.status)
            .field("outstanding", &self.outstanding)
            .field("queued", &self.sched_queue.len())
            .field("running", &self.running.len())
            .finish()
    }
}

impl Worker {
    /// Creates an up worker with a fresh GPU in the scheme's initial
    /// geometry.
    pub fn new(idx: usize, scheme: Box<dyn Scheme>, now: SimTime) -> Self {
        let gpu = Gpu::new(
            protean_gpu::GpuId(idx as u32),
            scheme.initial_geometry(),
            scheme.sharing_mode(),
            now,
        );
        let reorders = scheme.reorders();
        Worker {
            idx,
            scheme,
            status: WorkerStatus::Up,
            vm: None,
            pending_vm: None,
            gpu,
            epoch: 0,
            vm_epoch: 0,
            wait_container: FastHashMap::default(),
            pools: FastHashMap::default(),
            sched_queue: SchedQueue::new(reorders),
            running: FastHashMap::default(),
            outstanding: 0,
            window_batches: BTreeMap::new(),
            predicted_batches: BTreeMap::new(),
            window_be: 0,
            window_strict: 0,
            last_be_model: None,
        }
    }

    /// `true` if the dispatcher may route new requests here.
    pub fn routable(&self) -> bool {
        matches!(self.status, WorkerStatus::Up)
    }

    /// The `(routable, gpu accepting, outstanding)` triple that fully
    /// determines this worker's dispatch eligibility and rank — the
    /// state cached by [`crate::dispatch::DispatchIndex`].
    pub fn dispatch_state(&self) -> (bool, bool, u64) {
        (self.routable(), self.gpu.accepting(), self.outstanding)
    }

    /// Re-validates a popped `JobFinish` event: the worker's GPU must
    /// not have been rebuilt since the event was armed (`epoch`), the
    /// slice must still exist, and its membership must be unchanged
    /// (`generation`). The engine keeps one live finish event per slice;
    /// anything failing this check is stale and gets dropped.
    pub fn finish_event_live(&self, slice: usize, generation: u64, epoch: u64) -> bool {
        self.epoch == epoch
            && slice < self.gpu.slices().len()
            && self.gpu.slice(slice).generation() == generation
    }

    /// Rebuilds the GPU (VM replacement): fresh geometry, empty pools.
    /// Bumps both epochs — in-flight `JobFinish` *and* `BootDone` events
    /// from the old VM are stale after this.
    pub fn reset_runtime(&mut self, now: SimTime) {
        self.gpu = Gpu::new(
            protean_gpu::GpuId(self.idx as u32),
            self.scheme.initial_geometry(),
            self.scheme.sharing_mode(),
            now,
        );
        self.epoch += 1;
        self.vm_epoch += 1;
        self.pools.clear();
        self.wait_container.clear();
        debug_assert!(self.running.is_empty(), "reset with running batches");
    }

    /// Pulls every batch held anywhere in this worker's pipeline for
    /// re-dispatch after an eviction, in a fixed order: container waits
    /// (all models) by ascending `BatchId`, then the scheduler queue in
    /// service order, then running batches by ascending `BatchId`. The
    /// two maps' own iteration order never reaches the caller, so the
    /// re-dispatch order is a function of the worker's contents alone.
    pub fn drain_all_batches(&mut self) -> Vec<Batch> {
        let mut out = Vec::new();
        for q in self.wait_container.values_mut() {
            out.extend(q.drain(..));
        }
        out.sort_unstable_by_key(|b| b.id);
        out.extend(self.sched_queue.drain_all());
        let first_running = out.len();
        out.extend(self.running.drain().map(|(_, rb)| rb.batch));
        out[first_running..].sort_unstable_by_key(|b| b.id);
        self.outstanding = 0;
        out
    }

    /// Total cold starts across this worker's pools.
    pub fn cold_starts(&self) -> u64 {
        self.pools.values().map(Pool::cold_starts).sum()
    }

    /// Total proactive (predictive) boots across this worker's pools.
    pub fn proactive_boots(&self) -> u64 {
        self.pools.values().map(Pool::proactive_boots).sum()
    }

    /// Sum of best-effort memory waiting in the scheduler queue, for
    /// Algorithm 1.
    pub fn queued_be_mem_gb(&self, _catalog: &Catalog) -> f64 {
        self.sched_queue.be_mem_gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes_for_test::AlwaysLargest;
    use protean_trace::Request;
    use protean_trace::RequestId;

    fn batch(id: u64, strict: bool) -> Batch {
        Batch {
            id: BatchId(id),
            model: ModelId::ResNet50,
            strict,
            requests: vec![Request {
                id: RequestId(id),
                arrival: SimTime::ZERO,
                model: ModelId::ResNet50,
                strict,
            }],
            sealed_at: SimTime::ZERO,
            cold_wait_ms: 0.0,
            redispatched: false,
        }
    }

    #[test]
    fn reordering_queue_serves_strict_first() {
        let mut q = SchedQueue::new(true);
        q.push(batch(1, false), 4.0);
        q.push(batch(2, true), 0.0);
        q.push(batch(3, false), 4.0);
        q.push(batch(4, true), 0.0);
        let order: Vec<u64> = q.candidates(10).iter().map(|b| b.id.0).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
        assert_eq!(q.be_mem_gb(), 8.0);
    }

    #[test]
    fn fifo_queue_preserves_arrival_order() {
        let mut q = SchedQueue::new(false);
        q.push(batch(1, false), 4.0);
        q.push(batch(2, true), 0.0);
        q.push(batch(3, false), 4.0);
        let order: Vec<u64> = q.candidates(10).iter().map(|b| b.id.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn remove_updates_be_memory() {
        let mut q = SchedQueue::new(true);
        q.push(batch(1, false), 4.0);
        q.push(batch(2, true), 0.0);
        assert!(q.remove(BatchId(1), 4.0).is_some());
        assert_eq!(q.be_mem_gb(), 0.0);
        assert!(q.remove(BatchId(99), 4.0).is_none());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn candidates_respects_depth_per_class() {
        let mut q = SchedQueue::new(true);
        for i in 0..10 {
            q.push(batch(i, i % 2 == 0), 1.0);
        }
        // Reordering mode inspects up to `depth` strict plus up to
        // `depth` best-effort batches, strict first.
        let c = q.candidates(3);
        assert_eq!(c.len(), 6);
        assert!(c[..3].iter().all(|b| b.strict));
        assert!(c[3..].iter().all(|b| !b.strict));
        // FIFO mode respects the depth strictly.
        let mut f = SchedQueue::new(false);
        for i in 0..10 {
            f.push(batch(i, i % 2 == 0), 1.0);
        }
        assert_eq!(f.candidates(3).len(), 3);
    }

    #[test]
    fn drain_all_batches_empties_worker() {
        let mut w = Worker::new(0, Box::new(AlwaysLargest), SimTime::ZERO);
        w.sched_queue.push(batch(1, true), 0.0);
        w.sched_queue.push(batch(2, false), 4.0);
        w.outstanding = 2;
        let reqs = w.drain_all_batches();
        assert_eq!(reqs.len(), 2);
        assert_eq!(w.outstanding, 0);
        assert!(w.sched_queue.is_empty());
    }

    #[test]
    fn drain_all_batches_order_is_fixed() {
        // Orphans of an eviction are re-dispatched in drain order, so it
        // must not depend on how the maps happen to iterate: waits of
        // several models by ascending id, the scheduler queue in service
        // order, then running batches by ascending id.
        let mut w = Worker::new(0, Box::new(AlwaysLargest), SimTime::ZERO);
        let waits = [
            (ModelId::Bert, vec![17, 4]),
            (ModelId::Vgg19, vec![9]),
            (ModelId::ResNet50, vec![12, 2]),
        ];
        for (model, ids) in waits {
            let q = w.wait_container.entry(model).or_default();
            for id in ids {
                q.push_back(Batch {
                    model,
                    ..batch(id, false)
                });
            }
        }
        w.sched_queue.push(batch(30, false), 4.0);
        w.sched_queue.push(batch(1, true), 0.0);
        for id in [21, 5, 40, 8] {
            let running = RunningBatch {
                batch: batch(id, true),
                slice: 0,
                exec_start: SimTime::ZERO,
                solo_on_slice_ms: 1.0,
                solo_7g_ms: 1.0,
            };
            w.running.insert(BatchId(id), running);
        }
        w.outstanding = 13;
        let order: Vec<u64> = w.drain_all_batches().iter().map(|b| b.id.0).collect();
        assert_eq!(order, vec![2, 4, 9, 12, 17, 1, 30, 5, 8, 21, 40]);
        assert!(w.wait_container.values().all(VecDeque::is_empty));
        assert!(w.running.is_empty());
    }

    proptest::proptest! {
        /// Push/remove conservation: whatever order batches enter and
        /// leave, the queue's BE-memory counter matches the live BE
        /// batches and `candidates` covers the whole queue at full depth.
        #[test]
        fn prop_queue_conserves_batches_and_memory(
            ops in proptest::collection::vec((proptest::bool::ANY, 0.5f64..8.0), 1..60),
            reorders in proptest::bool::ANY,
        ) {
            let mut q = SchedQueue::new(reorders);
            let mut live: Vec<(u64, bool, f64)> = Vec::new();
            for (next_id, (strict, mem)) in ops.into_iter().enumerate() {
                let next_id = next_id as u64;
                // Alternate pushes with occasional removals.
                if next_id % 3 == 2 && !live.is_empty() {
                    let (id, _, m) = live.remove(0);
                    proptest::prop_assert!(q.remove(BatchId(id), m).is_some());
                } else {
                    q.push(batch(next_id, strict), mem);
                    live.push((next_id, strict, mem));
                }
                let expected_be: f64 = live
                    .iter()
                    .filter(|(_, s, _)| !s)
                    .map(|(_, _, m)| m)
                    .sum();
                proptest::prop_assert!((q.be_mem_gb() - expected_be).abs() < 1e-9,
                    "be mem {} expected {}", q.be_mem_gb(), expected_be);
                proptest::prop_assert_eq!(q.len(), live.len());
                proptest::prop_assert_eq!(q.candidates(live.len().max(1)).len(), live.len());
            }
            // Drain and verify every live batch is still present.
            for (id, _, m) in live {
                proptest::prop_assert!(q.remove(BatchId(id), m).is_some());
            }
            proptest::prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn reset_runtime_bumps_epoch_and_rebuilds_gpu() {
        let mut w = Worker::new(0, Box::new(AlwaysLargest), SimTime::ZERO);
        let e0 = w.epoch;
        w.reset_runtime(SimTime::from_secs(1.0));
        assert_eq!(w.epoch, e0 + 1);
        assert!(w.gpu.is_idle());
        assert!(w.routable());
    }
}
