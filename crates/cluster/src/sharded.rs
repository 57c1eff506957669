//! The cluster engine: one discrete-event state machine for the
//! gateway (batching, dispatch), MIG placement and reconfiguration,
//! container autoscaling and the spot-VM lifecycle (paper §4.2–4.5),
//! with optional parallelism inside a single run.
//!
//! # Partition
//!
//! The fleet's `W` workers are strided across `S` shards (worker `g`
//! lives on shard `g % S`). Each shard owns, exclusively:
//!
//! * its workers (GPU, pools, queues, running batches),
//! * a [`KeyedEventQueue`] holding the worker-local event classes
//!   ([`ShardEvent`]: container boots, job completions, reconfiguration
//!   completions) and their handlers,
//! * a [`DispatchIndex`] with one slot per owned worker, keyed by
//!   global worker index,
//! * its slice of every output stream (metrics, journal, timelines,
//!   engine stats).
//!
//! Everything *shared* — the gateway accumulators and backlog, the spot
//! market and VM ledger, the batch-id allocator, the auditor — lives on
//! the single [`Coordinator`], which also executes every serial event
//! class ([`CoordEvent`]: window expiries, monitor ticks, the whole
//! spot-VM lifecycle) and every arrival, in one global order. Each
//! lifecycle handler has exactly one definition: worker-local ones on
//! [`ShardCore`], serial ones on the coordinator.
//!
//! `S = 1` (the default) is one shard core run inline by the
//! coordinator: the same loop, phases and merge, with no threads, no
//! per-worker division and no timeline merge keys.
//!
//! # Phases and the key scheme
//!
//! Between two serial steps the coordinator runs a *phase*: every shard
//! advances its own queue up to an exclusive [`EventKey`] bound, in
//! parallel where threads exist. Bit-identity across shard counts rests
//! on the keys:
//!
//! * Serial-context pushes (coordinator) take `(time, ++gseq, 0)` —
//!   `gseq` is the global push counter, so their relative order is FIFO
//!   insertion order.
//! * Phase pushes by shard `s` take `(time, G, ((s+1) << 48) | ++ctr)`
//!   where `G` is the `gseq` snapshot at phase start and `ctr` is the
//!   shard's monotone counter. They sort after everything pushed
//!   serially before the phase and before everything pushed after it —
//!   exactly where a single insertion counter would have put them.
//! * An arrival at `ta` bounds the phase at `(ta, 0, 0)`: real event
//!   keys carry `major ≥ 1`, so events *at* `ta` wait — an arrival wins
//!   its tie against every event at the same instant.
//!
//! Two phase events with the *same* time but different shards may pop
//! in a different relative order than at `S = 1`. That is harmless by
//! construction: phase handlers touch only their own shard's state and
//! append to mergeable output buffers, so their effects commute; every
//! shared-state mutation happens on the coordinator in serial order.
//!
//! Consecutive dispatch-shaped events (arrivals and window expiries)
//! coalesce into one *dispatch run* whenever the phase between them is
//! provably empty; see [`Coordinator::dispatch_run`].
//!
//! # Merge
//!
//! Journal entries and audit hook calls are buffered as
//! `(ctx_key, n, payload)` where `ctx_key` identifies the execution
//! context (the popped event's key, or `(ta, 0, ++dseq)` for the
//! `dseq`-th arrival) and `n` counts records within the context; at
//! `S > 1` the timelines record the same `(ctx_key, n)` key per point.
//! A sort by `(ctx_key, n)` reconstructs the serial recording order
//! exactly. Metrics merge by [`MetricsSet::absorb`] in shard order, the
//! censored requests last; the golden digest is insensitive to record
//! order (it ranks sorted latencies and exact counters), which is what
//! makes per-shard record buffers safe.
//!
//! # Oracles
//!
//! `S = 1` and `S = k` share this code, so neither checks the other's
//! logic. The independent oracles are the 26 recorded golden digests
//! (`tests/golden_seed.rs`), [`ClusterConfig::reference_dispatch`] (a
//! linear fleet scan in place of the dispatch index, at any `S`) and
//! `max_epoch_arrivals = 1` (no run coarsening: every dispatch event is
//! its own epoch).
//!
//! # Documented deviations (none digest-visible)
//!
//! * `EngineStats::peak_heap_len` is the *sum* of per-queue peaks — the
//!   coordinator heap plus every shard heap, so also at `S = 1` (the
//!   queues peak at different instants).
//! * `dispatch_scan_visits` grows ~`S`-fold: each dispatch reduction
//!   queries every shard's index root.
//! * The auditor counts the same sweep opportunities at every `S` (and
//!   reports the same `checks`), but physically collapses the sweeps
//!   inside one phase into a single fleet sweep at the phase boundary.
//! * `AuditReport`/journal/stats are not digest material; all digest
//!   fields (counts, sorted latencies, cost, utilization, cold starts,
//!   reconfigs, censored, evictions) merge exactly.

use std::cell::UnsafeCell;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use protean_gpu::{JobId, JobSpec};
use protean_metrics::{LatencyBreakdown, MetricsSet, RequestRecord};
use protean_models::{Catalog, ModelId};
use protean_sim::{
    EventKey, FastHashMap, KeyedEventQueue, RngFactory, SimDuration, SimRng, SimTime, TimeSeries,
};
use protean_spot::{PricingTable, ProcurementPolicy, SpotOracle, VmId, VmLedger, VmTier};
use protean_trace::{Lookahead, Request, Trace, TraceConfig, TraceStream};

use crate::audit::Auditor;
use crate::batch::{Accumulator, Batch, BatchId};
use crate::container::Acquire;
use crate::dispatch::DispatchIndex;
use crate::engine::{ClusterConfig, CostReport, EngineStats, GeometryChange, SimulationResult};
use crate::journal::{Journal, JournalEvent};
use crate::scheme::{BatchView, DispatchPolicy, PlacementCtx, ReconfigCtx, SchemeBuilder};
use crate::worker::{RunningBatch, Worker, WorkerStatus};

/// EWMA smoothing factor for the per-(worker, model) batch-arrival
/// predictor behind predictive container pre-provisioning.
const PREWARM_EWMA_ALPHA: f64 = 0.3;

/// Epoch value signalling shard worker threads to exit.
const SHUTDOWN: u64 = u64::MAX;

/// Shard-tag shift for phase-push minors: `minor = ((s+1) << 48) | ctr`.
const SHARD_TAG_SHIFT: u32 = 48;

/// Worker-local event classes. During a phase a shard only ever pushes
/// these for its *own* workers; the coordinator deposits them with
/// serial keys (cold-start and predictive boots, initial provisioning).
#[derive(Debug)]
enum ShardEvent {
    BootDone {
        worker: usize,
        model: ModelId,
        vm_epoch: u64,
    },
    JobFinish {
        worker: usize,
        slice: usize,
        job: JobId,
        generation: u64,
        epoch: u64,
    },
    ReconfigDone {
        worker: usize,
        epoch: u64,
    },
}

/// Serial event classes, handled by the coordinator between phases.
/// They all touch shared state (gateway, market, ledger) or need the
/// fleet-wide dispatch reduction.
#[derive(Debug)]
enum CoordEvent {
    WindowExpire {
        model: ModelId,
        strict: bool,
        seq: u64,
    },
    MonitorTick,
    RevocationCheck {
        worker: usize,
    },
    EvictionFinal {
        worker: usize,
    },
    VmReady {
        worker: usize,
        tier: VmTier,
    },
    ProcurementRetry {
        worker: usize,
    },
}

/// Buffered audit hook from a phase context, flushed (sorted) at the
/// phase boundary. Coordinator-context hooks apply directly instead —
/// buffering them would misorder a placement against a later
/// eviction-orphan re-dispatch of the same batch.
#[derive(Debug)]
enum Hook {
    Placed(BatchId, usize),
    Finished(BatchId, usize),
}

/// How an execution context allocates event keys.
enum KeyAlloc<'c> {
    /// Coordinator context: `(time, ++gseq, 0)`.
    Serial { gseq: &'c mut u64 },
    /// Phase context on some shard: `(time, major, shard-tagged ctr)`.
    Phase { major: u64 },
}

/// Where an execution context's audit hooks go.
enum AuditSink<'c> {
    /// Straight into the auditor (coordinator contexts).
    Direct(&'c mut Auditor),
    /// Into the shard's hook buffer (phase contexts).
    Buffered,
}

/// Everything a [`ShardCore`] handler needs from its execution context:
/// the clock, the context key and record counter for output ordering,
/// the key allocator and the audit sink.
struct Ctx<'c> {
    config: &'c ClusterConfig,
    catalog: &'c Catalog,
    now: SimTime,
    /// Identifies this execution context in the merge order.
    ctx_key: EventKey,
    /// Next record ordinal within the context (shared across journal,
    /// hooks and timelines so a sort by `(ctx_key, n)` reproduces the
    /// context's internal recording order).
    n: u64,
    alloc: KeyAlloc<'c>,
    audit: AuditSink<'c>,
}

impl Ctx<'_> {
    fn next_n(&mut self) -> u64 {
        let n = self.n;
        self.n += 1;
        n
    }
}

/// Allocates the key for an event push from this context. A free
/// function (not a `ShardCore` method) so callers can borrow
/// `self.ctr` alongside other `ShardCore` fields.
fn next_event_key(ctx: &mut Ctx<'_>, shard: usize, ctr: &mut u64, time: SimTime) -> EventKey {
    match &mut ctx.alloc {
        KeyAlloc::Serial { gseq } => {
            **gseq += 1;
            EventKey::new(time, **gseq, 0)
        }
        KeyAlloc::Phase { major } => {
            *ctr += 1;
            debug_assert!(*ctr < 1 << SHARD_TAG_SHIFT, "phase counter overflow");
            EventKey::new(time, *major, ((shard as u64 + 1) << SHARD_TAG_SHIFT) | *ctr)
        }
    }
}

/// One shard's slice of an output timeline, in the shard's handling
/// order. With several shards each entry also records its `(ctx_key,
/// n)` merge key; a lone shard handles every event in increasing
/// context-key order already, so its entries need neither keys nor a
/// merge.
struct Timeline<T> {
    entries: Vec<T>,
    keys: Vec<(EventKey, u64)>,
    keyed: bool,
}

impl<T> Default for Timeline<T> {
    fn default() -> Self {
        Timeline::new(false)
    }
}

impl<T> Timeline<T> {
    fn new(keyed: bool) -> Self {
        Timeline {
            entries: Vec::new(),
            keys: Vec::new(),
            keyed,
        }
    }

    fn push(&mut self, ctx: &mut Ctx<'_>, entry: T) {
        let n = ctx.next_n();
        if self.keyed {
            self.keys.push((ctx.ctx_key, n));
        }
        self.entries.push(entry);
    }

    /// Merges the shards' slices into serial `(ctx_key, n)` order.
    fn merge(mut parts: Vec<Timeline<T>>) -> Vec<T> {
        if parts.len() == 1 {
            return parts.pop().expect("one part").entries;
        }
        let mut keyed: Vec<((EventKey, u64), T)> = parts
            .into_iter()
            .flat_map(|p| p.keys.into_iter().zip(p.entries))
            .collect();
        keyed.sort_unstable_by_key(|e| e.0);
        keyed.into_iter().map(|(_, e)| e).collect()
    }
}

/// Walks the workers of `cores` (all shards, in shard order) in global
/// index order: worker `g` is local slot `g / S` of shard `g % S`, so
/// row `l` of the shards holds workers `l * S .. (l + 1) * S` — no
/// per-worker division.
fn global_order<'c, I>(cores: I) -> impl Iterator<Item = &'c Worker>
where
    I: Iterator<Item = &'c ShardCore> + Clone,
{
    let rows = cores.clone().next().map_or(0, |c| c.workers.len());
    (0..rows).flat_map(move |l| cores.clone().filter_map(move |c| c.workers.get(l)))
}

/// One shard's exclusively-owned state. During a phase exactly one
/// thread touches a given core; between phases only the coordinator
/// does.
struct ShardCore {
    shard: usize,
    /// Shard count (the stride of the worker partition).
    stride: usize,
    /// Owned workers, locally indexed: local `l` is global
    /// `shard + l * stride`. `Worker::idx` stays global.
    workers: Vec<Worker>,
    /// Per-owned-worker execution-jitter streams
    /// (`indexed_stream("engine.exec_jitter", global_idx)`): a worker's
    /// jitter sequence depends only on its own placement history, so it
    /// is the same at every shard count.
    jitter_rngs: Vec<SimRng>,
    queue: KeyedEventQueue<ShardEvent>,
    /// Index over the owned workers, slot `l` for local worker `l`; keys
    /// carry global worker indices, so cross-shard reduction is a min
    /// over the per-shard roots.
    index: DispatchIndex,
    metrics: MetricsSet,
    /// `(ctx_key, n, event)` journal entries, merged by key at the end.
    journal_buf: Vec<(EventKey, u64, JournalEvent)>,
    /// Buffered phase-context audit hooks.
    hook_buf: Vec<(EventKey, u64, Hook)>,
    /// Per-strict-batch latency samples `(completion, mean latency ms)`.
    strict_latency: Timeline<(SimTime, f64)>,
    /// Completed MIG geometry changes.
    geometry: Timeline<GeometryChange>,
    /// Reusable candidate buffer for `try_place`.
    scratch_views: Vec<(BatchId, BatchView)>,
    stats: EngineStats,
    reconfigs: u64,
    /// Events handled in the current phase (drained by the coordinator
    /// at each phase boundary for audit-opportunity accounting).
    events_handled: u64,
    /// Phase-push minor counter: monotone for the whole run, never
    /// reset, so phase keys stay unique and chronologically ordered
    /// across phases sharing a `major` snapshot.
    ctr: u64,
    journal_enabled: bool,
    audit_enabled: bool,
}

impl ShardCore {
    fn new(
        shard: usize,
        stride: usize,
        config: &ClusterConfig,
        scheme: &dyn SchemeBuilder,
        factory: &RngFactory,
    ) -> Self {
        let globals: Vec<usize> = (shard..config.workers).step_by(stride).collect();
        let workers = globals
            .iter()
            .map(|&g| Worker::new(g, scheme.build(g), SimTime::ZERO))
            .collect();
        let jitter_rngs = globals
            .iter()
            .map(|&g| factory.indexed_stream("engine.exec_jitter", g as u64))
            .collect();
        ShardCore {
            shard,
            stride,
            workers,
            jitter_rngs,
            queue: KeyedEventQueue::new(),
            index: DispatchIndex::new(globals.len()),
            metrics: if config.aggregate_metrics {
                MetricsSet::aggregate()
            } else {
                MetricsSet::new()
            },
            journal_buf: Vec::new(),
            hook_buf: Vec::new(),
            strict_latency: Timeline::new(stride > 1),
            geometry: Timeline::new(stride > 1),
            scratch_views: Vec::new(),
            stats: EngineStats::default(),
            reconfigs: 0,
            events_handled: 0,
            ctr: 0,
            journal_enabled: config.journal_capacity > 0,
            audit_enabled: config.audit,
        }
    }

    /// Global worker index → local slot. A lone shard is the identity
    /// partition, so `S = 1` pays no division.
    fn local(&self, g: usize) -> usize {
        debug_assert_eq!(g % self.stride, self.shard, "worker {g} not on this shard");
        if self.stride == 1 {
            g
        } else {
            g / self.stride
        }
    }

    fn refresh_index(&mut self, l: usize) {
        self.index.refresh_worker(l, &self.workers[l]);
    }

    fn journal(&mut self, ctx: &mut Ctx<'_>, ev: JournalEvent) {
        if self.journal_enabled {
            let n = ctx.next_n();
            self.journal_buf.push((ctx.ctx_key, n, ev));
        }
    }

    fn audit_placed(&mut self, ctx: &mut Ctx<'_>, id: BatchId, g: usize) {
        match &mut ctx.audit {
            AuditSink::Direct(a) => a.batch_placed(ctx.now, id, g),
            AuditSink::Buffered => {
                if self.audit_enabled {
                    let n = ctx.next_n();
                    self.hook_buf.push((ctx.ctx_key, n, Hook::Placed(id, g)));
                }
            }
        }
    }

    fn audit_finished(&mut self, ctx: &mut Ctx<'_>, id: BatchId, g: usize) {
        match &mut ctx.audit {
            AuditSink::Direct(a) => a.batch_finished(ctx.now, id, g),
            AuditSink::Buffered => {
                if self.audit_enabled {
                    let n = ctx.next_n();
                    self.hook_buf.push((ctx.ctx_key, n, Hook::Finished(id, g)));
                }
            }
        }
    }

    /// Drains this shard's queue up to (exclusive) `bound`, handling
    /// each event in key order. `major` is the phase's `gseq` snapshot
    /// for keys of newly pushed events.
    fn advance(&mut self, config: &ClusterConfig, catalog: &Catalog, bound: EventKey, major: u64) {
        loop {
            match self.queue.peek_key() {
                Some(k) if k < bound => {}
                _ => break,
            }
            let (k, ev) = self.queue.pop().expect("peeked");
            let mut ctx = Ctx {
                config,
                catalog,
                now: k.time,
                ctx_key: k,
                n: 0,
                alloc: KeyAlloc::Phase { major },
                audit: AuditSink::Buffered,
            };
            match ev {
                ShardEvent::BootDone {
                    worker,
                    model,
                    vm_epoch,
                } => self.on_boot_done(&mut ctx, worker, model, vm_epoch),
                ShardEvent::JobFinish {
                    worker,
                    slice,
                    job,
                    generation,
                    epoch,
                } => self.on_job_finish(&mut ctx, worker, slice, job, generation, epoch),
                ShardEvent::ReconfigDone { worker, epoch } => {
                    self.on_reconfig_done(&mut ctx, worker, epoch)
                }
            }
            self.events_handled += 1;
        }
    }

    // ---- worker-local handlers --------------------------------------

    fn on_boot_done(&mut self, ctx: &mut Ctx<'_>, g: usize, model: ModelId, vm_epoch: u64) {
        let l = self.local(g);
        let now = ctx.now;
        let w = &mut self.workers[l];
        if w.vm_epoch != vm_epoch {
            // The VM this container was booting on has been replaced;
            // the boot died with it (the replacement VM's pools started
            // empty). Crediting it would mint a phantom container — or
            // underflow the fresh pool's booting count.
            self.stats.stale_boot_events += 1;
            return;
        }
        let waiting = w.wait_container.get_mut(&model).and_then(|q| q.pop_front());
        let pool = w.pools.entry(model).or_default();
        match waiting {
            Some(mut batch) => {
                pool.boot_done(now, true);
                batch.cold_wait_ms = now.saturating_since(batch.sealed_at).as_millis_f64();
                let mem = ctx.catalog.profile(model).mem_gb;
                w.sched_queue.push(batch, mem);
                self.try_place(ctx, g);
            }
            None => pool.boot_done(now, false),
        }
    }

    fn on_job_finish(
        &mut self,
        ctx: &mut Ctx<'_>,
        g: usize,
        slice: usize,
        job: JobId,
        generation: u64,
        epoch: u64,
    ) {
        let l = self.local(g);
        let w = &mut self.workers[l];
        if !w.finish_event_live(slice, generation, epoch) {
            self.stats.stale_finish_events += 1;
            return;
        }
        let now = ctx.now;
        let (finished, next) = match w.gpu.slice_mut(slice).finish(now, job) {
            Ok(ok) => ok,
            Err(_) => {
                // Stale in a way the generation missed: re-arm the
                // slice's single live finish event.
                self.stats.stale_finish_events += 1;
                let epoch = w.epoch;
                if let Some(c) = w.gpu.slice(slice).next_completion(now) {
                    self.stats.finish_events_pushed += 1;
                    let k = next_event_key(ctx, self.shard, &mut self.ctr, c.at);
                    self.queue.push(
                        k,
                        ShardEvent::JobFinish {
                            worker: g,
                            slice,
                            job: c.job,
                            generation: c.generation,
                            epoch,
                        },
                    );
                }
                return;
            }
        };
        let batch_id = BatchId(finished.spec.id.0);
        if !w.running.contains_key(&batch_id) {
            return;
        }
        // Re-arm the slice's single live finish event for the jobs still
        // resident (the all-jobs discipline would have re-pushed each).
        let new_epoch = w.epoch;
        self.stats.finish_events_all_jobs += w.gpu.slice(slice).job_count() as u64;
        if let Some(c) = next {
            self.stats.finish_events_pushed += 1;
            let k = next_event_key(ctx, self.shard, &mut self.ctr, c.at);
            self.queue.push(
                k,
                ShardEvent::JobFinish {
                    worker: g,
                    slice,
                    job: c.job,
                    generation: c.generation,
                    epoch: new_epoch,
                },
            );
        }
        let running = self.workers[l]
            .running
            .remove(&batch_id)
            .expect("checked above");
        self.audit_finished(ctx, batch_id, g);
        self.journal(
            ctx,
            JournalEvent::BatchFinished {
                batch: batch_id,
                worker: g,
            },
        );
        self.record_batch_completion(ctx, g, &running);
        // The container frees: reuse for a batch waiting on a
        // container, otherwise park warm.
        let model = running.batch.model;
        let w = &mut self.workers[l];
        let next = w.wait_container.get_mut(&model).and_then(|q| q.pop_front());
        let pool = w.pools.entry(model).or_default();
        match next {
            Some(batch) => {
                pool.release(now, true);
                let mem = ctx.catalog.profile(model).mem_gb;
                w.sched_queue.push(batch, mem);
            }
            None => pool.release(now, false),
        }
        self.maybe_begin_reconfigure(ctx, g);
        self.try_place(ctx, g);
    }

    fn record_batch_completion(&mut self, ctx: &mut Ctx<'_>, g: usize, running: &RunningBatch) {
        let l = self.local(g);
        let now = ctx.now;
        let exec_ms = now.saturating_since(running.exec_start).as_millis_f64();
        let interference_ms = (exec_ms - running.solo_on_slice_ms).max(0.0);
        let deficiency_ms = (running.solo_on_slice_ms - running.solo_7g_ms).max(0.0);
        let cold_ms = running.batch.cold_wait_ms;
        let measure_from = SimTime::ZERO + ctx.config.warmup;
        for req in &running.batch.requests {
            if req.arrival < measure_from {
                let w = &mut self.workers[l];
                w.outstanding = w.outstanding.saturating_sub(1);
                continue;
            }
            let total_ms = now.saturating_since(req.arrival).as_millis_f64();
            let queueing_ms =
                (total_ms - cold_ms - interference_ms - deficiency_ms - running.solo_7g_ms)
                    .max(0.0);
            self.metrics.push(RequestRecord {
                model: running.batch.model,
                strict: running.batch.strict,
                arrival: req.arrival,
                completion: now,
                breakdown: LatencyBreakdown {
                    min_exec_ms: running.solo_7g_ms,
                    deficiency_ms,
                    interference_ms,
                    queueing_ms,
                    cold_start_ms: cold_ms,
                },
            });
            let w = &mut self.workers[l];
            w.outstanding = w.outstanding.saturating_sub(1);
        }
        // The timeline grows O(#strict batches); aggregate-metrics runs
        // trade it away for the flat-RSS guarantee.
        if running.batch.strict && !ctx.config.aggregate_metrics {
            let mean_lat_ms = running
                .batch
                .requests
                .iter()
                .map(|r| now.saturating_since(r.arrival).as_millis_f64())
                .sum::<f64>()
                / running.batch.requests.len().max(1) as f64;
            self.strict_latency.push(ctx, (now, mean_lat_ms));
        }
        self.refresh_index(l);
    }

    /// The placement loop: offers the worker's queued batches (up to
    /// `scan_depth`) to the scheme until a pass places nothing. Event
    /// pushes go through [`next_event_key`], the journal and audit hooks
    /// through the context's buffers/sink.
    fn try_place(&mut self, ctx: &mut Ctx<'_>, g: usize) {
        let l = self.local(g);
        let mut views = std::mem::take(&mut self.scratch_views);
        loop {
            if !self.workers[l].gpu.accepting() {
                break;
            }
            views.clear();
            self.workers[l]
                .sched_queue
                .for_each_candidate(ctx.config.scan_depth, |b| {
                    views.push((
                        b.id,
                        BatchView {
                            model: b.model,
                            strict: b.strict,
                            size: b.size(),
                        },
                    ));
                });
            if views.is_empty() {
                break;
            }
            let mut placed_any = false;
            for &(batch_id, view) in &views {
                let placement = {
                    let w = &mut self.workers[l];
                    let pctx = PlacementCtx {
                        now: ctx.now,
                        gpu: &w.gpu,
                        queued_be_mem_gb: w.sched_queue.be_mem_gb(),
                        catalog: ctx.catalog,
                    };
                    w.scheme.place(&pctx, &view)
                };
                let Some(p) = placement else { continue };
                if p.slice >= self.workers[l].gpu.slices().len() {
                    continue;
                }
                let profile = ctx.catalog.profile(view.model);
                let slice_profile = self.workers[l].gpu.slice(p.slice).profile();
                // Inference batch latency is affine in batch size (see
                // ModelProfile::fill_factor), so partial (window-sealed)
                // batches run proportionally faster.
                let fill = f64::from(view.size) / f64::from(profile.batch_size);
                let fill_factor = profile.fill_factor(fill);
                let jitter = if ctx.config.exec_jitter_sigma > 0.0 {
                    (self.jitter_rngs[l].standard_normal() * ctx.config.exec_jitter_sigma)
                        .exp()
                        .clamp(0.6, 1.7)
                } else {
                    1.0
                };
                let mut solo = profile
                    .solo_on(slice_profile)
                    .mul_f64(p.solo_scale.max(0.0) * fill_factor * jitter);
                if self.workers[l].gpu.slice(p.slice).mode() == protean_gpu::SharingMode::TimeShared
                {
                    // Context switch between containers on a time-shared
                    // GPU (weights/context re-activation), scaling with
                    // the model's working set.
                    solo += SimDuration::from_millis(
                        ctx.config.time_share_overhead_base_ms
                            + ctx.config.time_share_overhead_ms_per_gb * profile.mem_gb,
                    );
                }
                let spec = JobSpec {
                    id: JobId(batch_id.0),
                    solo,
                    fbr: profile.fbr * p.fbr_scale.max(0.0),
                    mem_gb: profile.mem_gb,
                };
                let w = &mut self.workers[l];
                let admitted = w.gpu.slice_mut(p.slice).admit(ctx.now, spec);
                match admitted {
                    Ok(next) => {
                        let batch = w
                            .sched_queue
                            .remove(batch_id, profile.mem_gb)
                            .expect("placed batch was queued");
                        w.running.insert(
                            batch_id,
                            RunningBatch {
                                batch,
                                slice: p.slice,
                                exec_start: ctx.now,
                                solo_on_slice_ms: solo.as_millis_f64(),
                                solo_7g_ms: profile.solo_7g.as_millis_f64() * fill_factor * jitter,
                            },
                        );
                        // One live finish event per slice: the admit
                        // bumped the generation, so whatever event was
                        // armed before is now stale.
                        let epoch = w.epoch;
                        let job_count = w.gpu.slice(p.slice).job_count() as u64;
                        self.stats.finish_events_all_jobs += job_count;
                        self.stats.finish_events_pushed += 1;
                        let k = next_event_key(ctx, self.shard, &mut self.ctr, next.at);
                        self.queue.push(
                            k,
                            ShardEvent::JobFinish {
                                worker: g,
                                slice: p.slice,
                                job: next.job,
                                generation: next.generation,
                                epoch,
                            },
                        );
                        self.audit_placed(ctx, batch_id, g);
                        self.journal(
                            ctx,
                            JournalEvent::BatchPlaced {
                                batch: batch_id,
                                worker: g,
                                slice: p.slice,
                            },
                        );
                        placed_any = true;
                    }
                    Err(_) => {
                        // No room right now; the batch stays queued.
                    }
                }
            }
            if !placed_any {
                break;
            }
        }
        self.scratch_views = views;
    }

    fn maybe_begin_reconfigure(&mut self, ctx: &mut Ctx<'_>, g: usize) {
        let l = self.local(g);
        let w = &mut self.workers[l];
        if matches!(w.gpu.state(), protean_gpu::GpuState::Draining { .. }) && w.gpu.is_idle() {
            if let Ok(until) = w.gpu.try_begin_reconfigure(ctx.now) {
                let epoch = w.epoch;
                let k = next_event_key(ctx, self.shard, &mut self.ctr, until);
                self.queue
                    .push(k, ShardEvent::ReconfigDone { worker: g, epoch });
            }
        }
    }

    fn on_reconfig_done(&mut self, ctx: &mut Ctx<'_>, g: usize, epoch: u64) {
        let l = self.local(g);
        let w = &mut self.workers[l];
        if w.epoch != epoch {
            return; // VM replaced while reconfiguring
        }
        if w.gpu.complete_reconfigure(ctx.now).is_ok() {
            w.epoch += 1;
            self.reconfigs += 1;
            let geometry = w.gpu.geometry().to_string();
            self.journal(
                ctx,
                JournalEvent::Reconfigured {
                    worker: g,
                    geometry: geometry.clone(),
                },
            );
            let change = GeometryChange {
                at: ctx.now,
                worker: g,
                geometry,
            };
            self.geometry.push(ctx, change);
            self.refresh_index(l);
            self.try_place(ctx, g);
        }
    }
}

/// Per-shard synchronization block, cache-line padded so one shard's
/// epoch stores do not false-share with its neighbours'.
#[repr(align(128))]
struct ShardSync {
    /// Phase epoch the coordinator wants this shard to run
    /// ([`SHUTDOWN`] = exit).
    epoch: AtomicU64,
    /// Last epoch this shard finished.
    done: AtomicU64,
    bound_time: AtomicU64,
    bound_major: AtomicU64,
    bound_minor: AtomicU64,
    phase_major: AtomicU64,
}

impl ShardSync {
    fn new() -> Self {
        ShardSync {
            epoch: AtomicU64::new(0),
            done: AtomicU64::new(0),
            bound_time: AtomicU64::new(0),
            bound_major: AtomicU64::new(0),
            bound_minor: AtomicU64::new(0),
            phase_major: AtomicU64::new(0),
        }
    }
}

/// A [`ShardCore`] behind an [`UnsafeCell`] so shard worker threads can
/// take `&mut` access through a shared reference during phases.
struct ShardCell(UnsafeCell<ShardCore>);

/// SAFETY: access to the inner `ShardCore` is mutually exclusive by
/// protocol, not by type: between phases only the coordinator touches
/// any core; during a phase each signalled shard thread touches only
/// its own core, and the coordinator only touches cores it did not
/// signal. Hand-off is published by the `ShardSync` epoch/done
/// acquire/release pairs. The cell additionally asserts that the
/// contained state is safe to *move* across threads — `ShardCore`
/// holds `Box<dyn Scheme>` trait objects and `SimRng` streams without
/// `Send`/`Sync` bounds, which is sound because every scheme in this
/// workspace is a plain value struct (no `Rc`, no thread-local
/// handles); `SchemeBuilder: Send + Sync` already commits builders to
/// that contract.
unsafe impl Sync for ShardCell {}

/// Shard worker thread body: wait for a phase signal, drain the shard's
/// queue to the published bound, report done. Parks after a short spin
/// so idle shards cost nothing between bursts.
fn shard_worker_loop(
    cell: &ShardCell,
    sync: &ShardSync,
    config: &ClusterConfig,
    catalog: &Catalog,
) {
    let mut seen = 0u64;
    loop {
        let mut e = sync.epoch.load(Ordering::Acquire);
        let mut spins = 0u32;
        while e == seen {
            spins += 1;
            if spins > 4096 {
                std::thread::park();
                spins = 0;
            } else {
                std::hint::spin_loop();
            }
            e = sync.epoch.load(Ordering::Acquire);
        }
        if e == SHUTDOWN {
            return;
        }
        let bound = EventKey::new(
            SimTime::from_micros(sync.bound_time.load(Ordering::Relaxed)),
            sync.bound_major.load(Ordering::Relaxed),
            sync.bound_minor.load(Ordering::Relaxed),
        );
        let major = sync.phase_major.load(Ordering::Relaxed);
        // SAFETY: the coordinator signalled this epoch and will not
        // touch this core until it observes `done == e`.
        let core = unsafe { &mut *cell.0.get() };
        core.advance(config, catalog, bound, major);
        sync.done.store(e, Ordering::Release);
        seen = e;
    }
}

/// What a run feeds the coordinator: a materialised request vector or a
/// pair of lazy streams (arrivals + the prewarm pre-scan).
enum Source {
    Materialised(Vec<Request>, SimDuration),
    Streaming(Box<TraceStream>, Box<TraceStream>),
}

/// The serial half of the engine: owns all shared state and runs every
/// arrival and [`CoordEvent`] in one global order, with shard phases in
/// between.
struct Coordinator<'a> {
    config: &'a ClusterConfig,
    catalog: &'a Catalog,
    cells: &'a [ShardCell],
    syncs: &'a [ShardSync],
    /// Thread handles for signalling, indexed by shard (`None` = that
    /// shard always runs inline on the coordinator).
    threads: Vec<Option<std::thread::Thread>>,
    epoch: u64,
    market: &'a mut dyn SpotOracle,
    ledger: VmLedger,
    accumulators: FastHashMap<(ModelId, bool), Accumulator>,
    backlog: VecDeque<Batch>,
    coord_queue: KeyedEventQueue<CoordEvent>,
    /// Global serial push counter — the insertion counter of one
    /// FIFO-tie-broken event queue, reified into the keys.
    gseq: u64,
    /// Arrival-context counter for `(ta, 0, dseq)` merge keys.
    dseq: u64,
    now: SimTime,
    cutoff: SimTime,
    next_batch_id: u64,
    dispatch_policy: DispatchPolicy,
    journal_buf: Vec<(EventKey, u64, JournalEvent)>,
    stats: EngineStats,
    audit: Auditor,
    evictions: u64,
    censored: u64,
    /// Reusable distinct-model buffer for the prewarm pre-pass.
    scratch_models: Vec<ModelId>,
    /// Reusable hook-merge buffer for phase boundaries.
    scratch_hooks: Vec<(EventKey, u64, Hook)>,
    /// Reusable participating-shard list for `run_phase`.
    scratch_parts: Vec<usize>,
    /// Current serial context's merge key and record ordinal.
    ctx_key: EventKey,
    ctx_n: u64,
}

impl<'a> Coordinator<'a> {
    fn new(
        config: &'a ClusterConfig,
        catalog: &'a Catalog,
        cells: &'a [ShardCell],
        syncs: &'a [ShardSync],
        dispatch_policy: DispatchPolicy,
        market: &'a mut dyn SpotOracle,
    ) -> Self {
        assert!(config.workers > 0, "cluster needs at least one worker");
        Coordinator {
            config,
            catalog,
            cells,
            syncs,
            threads: vec![None; cells.len()],
            epoch: 0,
            market,
            ledger: VmLedger::new(PricingTable::paper_table3(), config.provider),
            accumulators: FastHashMap::default(),
            backlog: VecDeque::new(),
            coord_queue: KeyedEventQueue::new(),
            gseq: 0,
            dseq: 0,
            now: SimTime::ZERO,
            cutoff: SimTime::MAX,
            next_batch_id: 0,
            dispatch_policy,
            journal_buf: Vec::new(),
            stats: EngineStats::default(),
            audit: Auditor::new(config.audit, config.audit_every_n),
            evictions: 0,
            censored: 0,
            scratch_models: Vec::new(),
            scratch_hooks: Vec::new(),
            scratch_parts: Vec::new(),
            ctx_key: EventKey::new(SimTime::ZERO, 0, 0),
            ctx_n: 0,
        }
    }

    fn shards(&self) -> usize {
        self.cells.len()
    }

    fn total_workers(&self) -> usize {
        self.config.workers
    }

    /// Between-phase access to a shard core. SAFETY: caller must be in
    /// a serial section (no phase in flight), which every call site in
    /// this file is — phases are bracketed by `run_phase`.
    fn core(&self, s: usize) -> &'a ShardCore {
        unsafe { &*self.cells[s].0.get() }
    }

    /// Mutable between-phase access. The returned borrow is tied to the
    /// cells' lifetime, not `&self`, so callers can hold it across
    /// `&mut self` calls — the aliasing discipline (never two live
    /// borrows of the same core) is maintained manually at each call
    /// site.
    #[allow(clippy::mut_from_ref)]
    fn core_mut(&self, s: usize) -> &'a mut ShardCore {
        unsafe { &mut *self.cells[s].0.get() }
    }

    /// The shard core owning global worker `g` and `g`'s local slot in
    /// it, for between-phase access (see [`Coordinator::core_mut`]).
    fn slot(&self, g: usize) -> (&'a mut ShardCore, usize) {
        let core = self.core_mut(self.shard_of(g));
        let l = core.local(g);
        (core, l)
    }

    /// The fleet's workers in global index order (between phases).
    fn fleet(&self) -> impl Iterator<Item = &'a Worker> + '_ {
        global_order((0..self.shards()).map(|s| self.core(s)))
    }

    /// The shard owning global worker `g`.
    fn shard_of(&self, g: usize) -> usize {
        match self.shards() {
            1 => 0,
            s => g % s,
        }
    }

    /// Allocates a serial event key: the next global insertion-counter
    /// position.
    fn serial_key(&mut self, time: SimTime) -> EventKey {
        self.gseq += 1;
        EventKey::new(time, self.gseq, 0)
    }

    fn push_coord(&mut self, time: SimTime, ev: CoordEvent) {
        let k = self.serial_key(time);
        self.coord_queue.push(k, ev);
    }

    /// Opens a serial execution context for output-merge ordering.
    fn begin_ctx(&mut self, key: EventKey) {
        self.ctx_key = key;
        self.ctx_n = 0;
    }

    fn cjournal(&mut self, ev: JournalEvent) {
        if self.config.journal_capacity > 0 {
            self.journal_buf.push((self.ctx_key, self.ctx_n, ev));
            self.ctx_n += 1;
        }
    }

    /// Runs a [`ShardCore`] method in the current serial context:
    /// serial key allocation, direct audit sink, shared record ordinal.
    fn with_serial_ctx<R>(
        &mut self,
        g: usize,
        f: impl FnOnce(&mut ShardCore, &mut Ctx<'_>, usize) -> R,
    ) -> R {
        let core = self.core_mut(self.shard_of(g));
        let mut ctx = Ctx {
            config: self.config,
            catalog: self.catalog,
            now: self.now,
            ctx_key: self.ctx_key,
            n: self.ctx_n,
            alloc: KeyAlloc::Serial {
                gseq: &mut self.gseq,
            },
            audit: AuditSink::Direct(&mut self.audit),
        };
        let r = f(core, &mut ctx, g);
        self.ctx_n = ctx.n;
        r
    }

    fn try_place_on(&mut self, g: usize) {
        self.with_serial_ctx(g, |core, ctx, g| core.try_place(ctx, g));
    }

    fn maybe_begin_reconfigure_on(&mut self, g: usize) {
        self.with_serial_ctx(g, |core, ctx, g| core.maybe_begin_reconfigure(ctx, g));
    }

    // ---- startup ----------------------------------------------------

    fn provision_initial_vms(&mut self) {
        for g in 0..self.total_workers() {
            let policy = self.config.procurement;
            let tier = match policy {
                ProcurementPolicy::OnDemandOnly => Some(VmTier::OnDemand),
                _ => policy.replacement_tier(self.market.try_acquire_spot(self.now, g)),
            };
            match tier {
                Some(tier) => {
                    let id = self.ledger.allocate_id();
                    self.ledger.open(id, tier, SimTime::ZERO);
                    let (core, l) = self.slot(g);
                    let w = &mut core.workers[l];
                    w.vm = Some((id, tier));
                    w.status = WorkerStatus::Up;
                    w.gpu.set_reconfig_delay(self.config.reconfig_delay);
                    if tier == VmTier::Spot {
                        self.push_coord(
                            SimTime::ZERO + self.config.revocation_check,
                            CoordEvent::RevocationCheck { worker: g },
                        );
                    }
                }
                None => {
                    let (core, l) = self.slot(g);
                    core.workers[l].status = WorkerStatus::Down;
                    self.push_coord(
                        SimTime::ZERO + self.config.procurement_retry,
                        CoordEvent::ProcurementRetry { worker: g },
                    );
                }
            }
        }
        for g in 0..self.total_workers() {
            let (core, l) = self.slot(g);
            core.refresh_index(l);
        }
        self.push_coord(
            SimTime::ZERO + self.config.monitor_interval,
            CoordEvent::MonitorTick,
        );
    }

    fn prewarm_pools(&mut self, requests: &[Request]) {
        if self.config.prewarm_containers == 0 {
            return;
        }
        let mut models = std::mem::take(&mut self.scratch_models);
        models.clear();
        let mut seen: HashSet<ModelId> = HashSet::new();
        let mut last: Option<ModelId> = None;
        for r in requests {
            if last == Some(r.model) {
                continue;
            }
            last = Some(r.model);
            if seen.insert(r.model) {
                models.push(r.model);
            }
        }
        self.prewarm_models(&models);
        self.scratch_models = models;
    }

    fn prewarm_pools_streaming(&mut self, stream: TraceStream) {
        if self.config.prewarm_containers == 0 {
            return;
        }
        let universe = stream.model_universe().len();
        let mut models = std::mem::take(&mut self.scratch_models);
        models.clear();
        let mut seen: HashSet<ModelId> = HashSet::new();
        let mut last: Option<ModelId> = None;
        for r in stream {
            if last == Some(r.model) {
                continue;
            }
            last = Some(r.model);
            if seen.insert(r.model) {
                models.push(r.model);
                if models.len() >= universe {
                    break;
                }
            }
        }
        self.prewarm_models(&models);
        self.scratch_models = models;
    }

    fn prewarm_models(&mut self, models: &[ModelId]) {
        let now = self.now;
        let count = self.config.prewarm_containers;
        for g in 0..self.total_workers() {
            let (core, l) = self.slot(g);
            let w = &mut core.workers[l];
            let satisfied = models.iter().all(|m| {
                w.pools
                    .get(m)
                    .is_some_and(|p| p.total_containers() as usize >= count)
            });
            if satisfied {
                continue;
            }
            for &m in models {
                w.pools.entry(m).or_default().prewarm(now, count);
            }
        }
    }

    // ---- request path -----------------------------------------------

    fn dispatch(&mut self, request: Request) {
        self.stats.arrivals += 1;
        let batch_size = self.catalog.profile(request.model).batch_size;
        let key = (request.model, request.strict);
        let acc = self.accumulators.entry(key).or_default();
        let first = acc.push(request);
        if acc.len() as u32 >= batch_size {
            self.seal_batch(key);
        } else if first {
            let seq = self.accumulators[&key].seal_seq;
            self.push_coord(
                self.now + self.config.batch_window,
                CoordEvent::WindowExpire {
                    model: key.0,
                    strict: key.1,
                    seq,
                },
            );
        }
    }

    fn seal_batch(&mut self, key: (ModelId, bool)) {
        let requests = match self.accumulators.get_mut(&key) {
            Some(acc) if !acc.is_empty() => acc.seal(),
            _ => return,
        };
        let id = BatchId(self.next_batch_id);
        self.next_batch_id += 1;
        let batch = Batch {
            id,
            model: key.0,
            strict: key.1,
            requests,
            sealed_at: self.now,
            cold_wait_ms: 0.0,
            redispatched: false,
        };
        self.audit.batch_sealed(self.now, batch.id);
        self.cjournal(JournalEvent::BatchSealed {
            batch: batch.id,
            model: batch.model,
            strict: batch.strict,
            size: batch.size(),
        });
        self.dispatch_batch(batch);
    }

    /// Dispatcher: routes a sealed batch per the scheme's policy —
    /// least-loaded live worker, or (INFless/Llama-style) consolidated
    /// onto the fewest GPUs with memory headroom. Target selection goes
    /// through the per-shard [`DispatchIndex`]es (O(S log W) per batch)
    /// unless [`ClusterConfig::reference_dispatch`] selects the retained
    /// O(W) fleet scan; both pick the identical worker.
    fn dispatch_batch(&mut self, batch: Batch) {
        self.stats.dispatch_batches += 1;
        let mut visits = 0u64;
        let target = if self.config.reference_dispatch {
            self.reference_target(&batch, &mut visits)
        } else {
            self.indexed_target(&batch, &mut visits)
        };
        self.stats.dispatch_scan_visits += visits;
        match target {
            Some(g) => {
                let (core, l) = self.slot(g);
                let routable = core.workers[l].routable();
                self.audit
                    .batch_dispatched(self.now, batch.id, g, routable, batch.redispatched);
                let w = &mut core.workers[l];
                let n = batch.requests.len() as u64;
                w.outstanding += n;
                // Per-window load counters feed the reconfiguration
                // predictor; an eviction orphan's requests were already
                // counted at first dispatch, so re-counting them here
                // would double the apparent window load.
                if !batch.redispatched {
                    if batch.strict {
                        w.window_strict += n;
                    } else {
                        w.window_be += n;
                    }
                }
                if !batch.strict {
                    w.last_be_model = Some(batch.model);
                }
                // Per-model dispatch counts drive predictive container
                // pre-provisioning; the target worker needs a container
                // whether or not the batch is an orphan.
                *w.window_batches.entry(batch.model).or_insert(0) += 1;
                core.refresh_index(l);
                self.cjournal(JournalEvent::BatchDispatched {
                    batch: batch.id,
                    worker: g,
                    redispatch: batch.redispatched,
                });
                self.acquire_container(g, batch);
            }
            None => self.backlog.push_back(batch),
        }
    }

    /// Cross-shard reduction of the per-shard dispatch indices. Each
    /// shard's index spans only its own workers, in local order, with
    /// keys carrying global worker indices; local and global order
    /// agree inside a shard (`g = shard + l·S`), so
    /// [`crate::dispatch::select_across`]'s min-over-roots reduction
    /// equals the fleet-wide scan: first-fit picks the smallest global
    /// index any shard can seat (each shard's descent is leftmost over
    /// its own slots), and the least-loaded tiers pick the min
    /// `(outstanding, idx)` root. Decision-only —
    /// mutation (worker state + index refresh) happens strictly after,
    /// which is what makes resolving a whole arrival run's decisions in
    /// serial order between phases hazard-free.
    fn indexed_target(&self, batch: &Batch, visits: &mut u64) -> Option<usize> {
        let cap = match self.dispatch_policy {
            DispatchPolicy::Consolidate { cap_batches } => {
                Some(cap_batches * u64::from(self.catalog.profile(batch.model).batch_size))
            }
            DispatchPolicy::LoadBalance => None,
        };
        crate::dispatch::select_across((0..self.shards()).map(|s| &self.core(s).index), cap, visits)
    }

    /// The original O(W) scans, retained as the differential reference
    /// and the fleet-scale benchmark baseline
    /// ([`ClusterConfig::reference_dispatch`]): the fleet in global
    /// worker order `g in 0..W` across the shard cores. Preference
    /// order matches the index path: consolidate first-fit when the
    /// policy asks, then the least-loaded worker with an accepting GPU —
    /// a GPU draining for reconfiguration gets no new traffic (§4.4
    /// keeps downtime local) — then any live worker if every GPU is
    /// mid-change, ties broken by `(outstanding, idx)`.
    fn reference_target(&self, batch: &Batch, visits: &mut u64) -> Option<usize> {
        if let DispatchPolicy::Consolidate { cap_batches } = self.dispatch_policy {
            let cap = cap_batches * u64::from(self.catalog.profile(batch.model).batch_size);
            let first_fit = self.fleet().find(|w| {
                *visits += 1;
                w.routable() && w.gpu.accepting() && w.outstanding < cap
            });
            if let Some(w) = first_fit {
                return Some(w.idx);
            }
        }
        let least_loaded = |visits: &mut u64, need_accepting: bool| {
            *visits += self.total_workers() as u64;
            self.fleet()
                .filter(|w| w.routable() && (!need_accepting || w.gpu.accepting()))
                .min_by_key(|w| (w.outstanding, w.idx))
                .map(|w| w.idx)
        };
        least_loaded(visits, true).or_else(|| least_loaded(visits, false))
    }

    fn acquire_container(&mut self, g: usize, batch: Batch) {
        let model = batch.model;
        let now = self.now;
        let (core, l) = self.slot(g);
        let w = &mut core.workers[l];
        let pool = w.pools.entry(model).or_default();
        match pool.acquire(now) {
            Acquire::Warm => {
                let mem = self.catalog.profile(model).mem_gb;
                w.sched_queue.push(batch, mem);
                self.try_place_on(g);
            }
            Acquire::ColdStarted => {
                let vm_epoch = w.vm_epoch;
                w.wait_container.entry(model).or_default().push_back(batch);
                self.cjournal(JournalEvent::ColdStart { worker: g, model });
                let k = self.serial_key(now + self.config.cold_start);
                core.queue.push(
                    k,
                    ShardEvent::BootDone {
                        worker: g,
                        model,
                        vm_epoch,
                    },
                );
            }
        }
    }

    // ---- phases -----------------------------------------------------

    /// Advances every shard with pending events to the exclusive `bound`
    /// (clamped at the cutoff), in parallel where threads exist, and
    /// returns how many events the phase handled.
    fn run_phase(&mut self, bound: EventKey) -> u64 {
        let cutoff_bound = EventKey::new(self.cutoff, u64::MAX, u64::MAX);
        let bound = bound.min(cutoff_bound);
        let mut parts = std::mem::take(&mut self.scratch_parts);
        parts.clear();
        for s in 0..self.shards() {
            if self.core(s).queue.has_event_before(bound) {
                parts.push(s);
            }
        }
        if parts.is_empty() {
            self.scratch_parts = parts;
            return 0;
        }
        let major = self.gseq;
        self.epoch += 1;
        let epoch = self.epoch;
        for &s in &parts {
            if let Some(thread) = &self.threads[s] {
                let sync = &self.syncs[s];
                sync.bound_time
                    .store(bound.time.as_micros(), Ordering::Relaxed);
                sync.bound_major.store(bound.major, Ordering::Relaxed);
                sync.bound_minor.store(bound.minor, Ordering::Relaxed);
                sync.phase_major.store(major, Ordering::Relaxed);
                sync.epoch.store(epoch, Ordering::Release);
                thread.unpark();
            }
        }
        for &s in &parts {
            if self.threads[s].is_none() {
                self.core_mut(s)
                    .advance(self.config, self.catalog, bound, major);
            }
        }
        let mut total = 0;
        for &s in &parts {
            if self.threads[s].is_some() {
                let sync = &self.syncs[s];
                let mut spins = 0u32;
                while sync.done.load(Ordering::Acquire) != epoch {
                    spins += 1;
                    if spins > 256 {
                        // Oversubscribed (fewer cores than shards): give
                        // the shard thread the CPU instead of burning it.
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
            total += std::mem::take(&mut self.core_mut(s).events_handled);
        }
        self.flush_hooks(&parts);
        self.scratch_parts = parts;
        total
    }

    /// Applies the phase's buffered audit hooks in merged `(ctx_key, n)`
    /// order — the serial order of the calls.
    fn flush_hooks(&mut self, parts: &[usize]) {
        let mut hooks = std::mem::take(&mut self.scratch_hooks);
        hooks.clear();
        for &s in parts {
            hooks.append(&mut self.core_mut(s).hook_buf);
        }
        if !hooks.is_empty() {
            hooks.sort_unstable_by_key(|&(key, n, _)| (key, n));
            for (key, _, hook) in hooks.drain(..) {
                match hook {
                    Hook::Placed(id, g) => self.audit.batch_placed(key.time, id, g),
                    Hook::Finished(id, g) => self.audit.batch_finished(key.time, id, g),
                }
            }
        }
        self.scratch_hooks = hooks;
    }

    /// Counts `opportunities` audit-sweep opportunities (one per handled
    /// event or dispatched arrival) and, if any came due, runs one
    /// collapsed fleet sweep at `at`.
    fn audit_boundary(&mut self, at: SimTime, opportunities: u64) {
        if opportunities == 0 {
            return;
        }
        let mut due = false;
        for _ in 0..opportunities {
            due |= self.audit.sweep_due();
        }
        if !due {
            return;
        }
        let mut problems: Vec<String> = Vec::new();
        for s in 0..self.shards() {
            let core = self.core(s);
            problems.extend(core.index.verify_partition(&core.workers));
        }
        let fleet: Vec<&Worker> = self.fleet().collect();
        self.audit
            .sweep(at, fleet.into_iter(), &self.ledger, problems);
    }

    // ---- main loop --------------------------------------------------

    fn run_arrivals<I: Iterator<Item = Request>>(&mut self, arrivals: I, duration: SimDuration) {
        enum Step {
            Arrival,
            Coord,
            Done,
        }
        self.cutoff = SimTime::ZERO + duration + self.config.drain_grace;
        let mut arrivals = Lookahead::new(arrivals);
        loop {
            let next_arrival = arrivals.peek_arrival();
            let next_coord = self.coord_queue.peek_key();
            let (bound, step) = match (next_arrival, next_coord) {
                (Some(ta), Some(ck)) if ta <= ck.time => (EventKey::new(ta, 0, 0), Step::Arrival),
                (Some(ta), None) => (EventKey::new(ta, 0, 0), Step::Arrival),
                (_, Some(ck)) => (ck, Step::Coord),
                (None, None) => (EventKey::new(SimTime::MAX, u64::MAX, u64::MAX), Step::Done),
            };
            let events = self.run_phase(bound);
            let sweep_at = bound.time.min(self.cutoff);
            self.audit_boundary(sweep_at, events);
            match step {
                Step::Arrival => {
                    let ta = next_arrival.expect("peeked");
                    if ta > self.cutoff {
                        break;
                    }
                    self.dispatch_run(&mut arrivals);
                }
                Step::Coord => {
                    let ck = next_coord.expect("peeked");
                    if ck.time > self.cutoff {
                        break;
                    }
                    if matches!(
                        self.coord_queue.peek(),
                        Some((_, CoordEvent::WindowExpire { .. }))
                    ) {
                        // A window expiry is dispatch-shaped, so it
                        // *opens* a run instead of standing alone: the
                        // phase bounded at its key just completed, which
                        // is exactly the admission proof `dispatch_run`
                        // requires of its first member.
                        self.dispatch_run(&mut arrivals);
                    } else {
                        self.now = ck.time;
                        let (k, ev) = self.coord_queue.pop().expect("peeked");
                        self.begin_ctx(k);
                        self.handle_coord(ev);
                        self.audit_boundary(k.time, 1);
                    }
                }
                Step::Done => break,
            }
        }
        self.now = self.cutoff;
        self.audit.epoch_conservation(self.now, &self.stats);
        self.censor_remaining();
    }

    /// Peels and dispatches one maximal *dispatch run* — the epoch
    /// coarsening at the heart of this engine's scalability on
    /// dispatch-dense traces. A run is a maximal sequence of
    /// consecutive dispatch-shaped events: gateway arrivals and
    /// `WindowExpire` batch-window dispatches, which route the pending
    /// window batch through the same `DispatchIndex` path an arrival
    /// uses. The phase bounded at the run's first member has just
    /// completed, so every shard's next pending event (if any) sits at
    /// or after that member's bound. Each run member is handled exactly as in
    /// per-arrival mode (serial context, live index resolution, full
    /// mutation, per-member audit opportunity); the run then *extends*
    /// to the next dispatch event only when the phase the per-arrival
    /// discipline would insert before it is provably empty:
    ///
    /// * the member wins its key-order tie against every other pending
    ///   serial coordinator event — an arrival's bound `(ta, 0, 0)`
    ///   orders before every real key at `ta` (real keys have
    ///   `major >= 1`), so `ta <= te` is the arrival's tie win; a
    ///   window expiry qualifies only as the coordinator-queue *head*,
    ///   which (keys being unique) is an automatic strict win — both
    ///   re-checked each step, since dispatching a run member can
    ///   schedule a new window expiry, and
    /// * no shard holds a pending event below the member's key
    ///   (re-checked each step — a cold start deposits a serially-keyed
    ///   `BootDone` into a shard heap mid-run). Events pushed *by* run
    ///   members carry fresh serial majors greater than any admitted
    ///   member's, so they can never retroactively invalidate an
    ///   elision already proven.
    ///
    /// The run cuts the moment a non-dispatch coordinator event
    /// (`MonitorTick`, `RevocationCheck`, `EvictionFinal`, `VmReady`,
    /// `ProcurementRetry`) wins the tie, or a shard conflict
    /// intervenes. A skipped phase with no participants has *no* effect
    /// in per-arrival mode (`run_phase` returns 0 before touching the
    /// epoch counter or the barrier, and a 0-event `audit_boundary` is
    /// a no-op), so eliding it is exact — bit-identical by
    /// construction, for any workload, shard count and cap. Runs
    /// additionally cut at
    /// [`ClusterConfig::max_epoch_arrivals`] members, under
    /// journal-capacity pressure, and at the trace end / cutoff; every
    /// cut is attributed to exactly one cause so the counter triad
    /// reconciles (see [`Auditor::epoch_conservation`]).
    fn dispatch_run<I: Iterator<Item = Request>>(&mut self, arrivals: &mut Lookahead<I>) {
        let cap = self.config.max_epoch_arrivals.max(1);
        self.stats.epochs += 1;
        let mut members = 0u64;
        let mut expiry_members = 0u64;
        let mut first_is_expiry = false;
        loop {
            // Select the next member by key order over the unfiltered
            // peeks. Admission was proven by the caller (first member:
            // its bounding phase just ran) or by the extension check at
            // the bottom of the previous iteration.
            let take_arrival = match (arrivals.peek_arrival(), self.coord_queue.peek_key()) {
                (Some(ta), Some(ck)) => ta <= ck.time,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("admission-checked"),
            };
            if take_arrival {
                let r = arrivals.next().expect("peeked");
                self.now = r.arrival;
                self.dseq += 1;
                self.begin_ctx(EventKey::new(r.arrival, 0, self.dseq));
                self.dispatch(r);
            } else {
                let (k, ev) = self.coord_queue.pop().expect("peeked");
                debug_assert!(
                    matches!(ev, CoordEvent::WindowExpire { .. }),
                    "only window expiries are admitted into dispatch runs"
                );
                if members == 0 {
                    first_is_expiry = true;
                }
                expiry_members += 1;
                self.now = k.time;
                self.begin_ctx(k);
                self.handle_coord(ev);
            }
            members += 1;
            self.audit_boundary(self.now, 1);

            let ta = arrivals.peek_arrival().filter(|&ta| ta <= self.cutoff);
            let next_expiry_key = match self.coord_queue.peek() {
                Some((ck, CoordEvent::WindowExpire { .. })) if ck.time <= self.cutoff => Some(ck),
                _ => None,
            };
            if ta.is_none() && next_expiry_key.is_none() {
                self.stats.run_cutoffs.trace_end += 1;
                break;
            }
            if members >= cap {
                self.stats.run_cutoffs.max_arrivals += 1;
                break;
            }
            if self.config.journal_capacity > 0
                && self.journal_buf.len() >= self.config.journal_capacity
            {
                self.stats.run_cutoffs.journal_pressure += 1;
                break;
            }
            let ck = self.coord_queue.peek_key();
            let arrival_next = ta.is_some_and(|ta| ck.is_none_or(|ck| ta <= ck.time));
            if arrival_next {
                let bound = EventKey::new(ta.expect("checked"), 0, 0);
                if (0..self.shards()).any(|s| self.core(s).queue.has_event_before(bound)) {
                    self.stats.run_cutoffs.shard_conflict += 1;
                    break;
                }
            } else if let Some(bound) = next_expiry_key {
                if (0..self.shards()).any(|s| self.core(s).queue.has_event_before(bound)) {
                    self.stats.run_cutoffs.expiry_shard_conflict += 1;
                    break;
                }
            } else {
                // A non-dispatch coordinator event beat the next
                // arrival.
                self.stats.run_cutoffs.serial_event += 1;
                break;
            }
        }
        let arrival_members = members - expiry_members;
        if first_is_expiry {
            self.stats.coalesced_arrivals += arrival_members;
            self.stats.coalesced_expiries += expiry_members - 1;
        } else {
            self.stats.coalesced_arrivals += arrival_members - 1;
            self.stats.coalesced_expiries += expiry_members;
        }
    }

    fn handle_coord(&mut self, ev: CoordEvent) {
        match ev {
            CoordEvent::WindowExpire { model, strict, seq } => {
                self.stats.expiries += 1;
                let stale = self
                    .accumulators
                    .get(&(model, strict))
                    .is_none_or(|acc| acc.seal_seq != seq || acc.is_empty());
                if !stale {
                    self.seal_batch((model, strict));
                }
            }
            CoordEvent::MonitorTick => self.on_monitor_tick(),
            CoordEvent::RevocationCheck { worker } => self.on_revocation_check(worker),
            CoordEvent::EvictionFinal { worker } => self.on_eviction_final(worker),
            CoordEvent::VmReady { worker, tier } => self.on_vm_ready(worker, tier),
            CoordEvent::ProcurementRetry { worker } => self.on_procurement_retry(worker),
        }
    }

    // ---- monitor ----------------------------------------------------

    fn on_monitor_tick(&mut self) {
        let now = self.now;
        for g in 0..self.total_workers() {
            let keep_alive = self.config.keep_alive;
            let (core, l) = self.slot(g);
            for pool in core.workers[l].pools.values_mut() {
                pool.expire_idle(now, keep_alive);
            }
            self.predictive_prewarm_tick(g);
            let core = self.core_mut(self.shard_of(g));
            if !matches!(core.workers[l].status, WorkerStatus::Up) {
                continue;
            }
            let desired = {
                let w = &mut core.workers[l];
                let ctx = ReconfigCtx {
                    now,
                    gpu: &w.gpu,
                    window_be_requests: w.window_be,
                    window_strict_requests: w.window_strict,
                    be_model: w.last_be_model,
                    catalog: self.catalog,
                };
                let desired = w.scheme.reconfigure(&ctx);
                w.window_be = 0;
                w.window_strict = 0;
                desired
            };
            if let Some(geometry) = desired {
                if geometry != *core.workers[l].gpu.geometry() && self.reconfig_slots_free() {
                    let _ = core.workers[l].gpu.request_reconfigure(geometry);
                    core.refresh_index(l);
                    self.maybe_begin_reconfigure_on(g);
                }
            }
        }
        self.drain_backlog();
        if now + self.config.monitor_interval <= self.cutoff {
            self.push_coord(now + self.config.monitor_interval, CoordEvent::MonitorTick);
        }
    }

    fn predictive_prewarm_tick(&mut self, g: usize) {
        let now = self.now;
        let (core, l) = self.slot(g);
        let w = &mut core.workers[l];
        // The window map is retained (counts zeroed in place) rather
        // than `mem::take`n: taking it reallocated the BTreeMap nodes
        // every monitor interval. Zero-count entries are models from
        // earlier windows; skipping them reproduces the taken map's
        // observe sequence exactly (same models, same BTreeMap order).
        for (&model, count) in w.window_batches.iter_mut() {
            if *count > 0 {
                w.predicted_batches
                    .entry(model)
                    .or_insert_with(|| protean_sim::Ewma::new(PREWARM_EWMA_ALPHA))
                    .observe(*count as f64);
                *count = 0;
            }
        }
        if !self.config.predictive_prewarm || !matches!(w.status, WorkerStatus::Up) {
            return;
        }
        let vm_epoch = w.vm_epoch;
        let predictions: Vec<(ModelId, f64)> = w
            .predicted_batches
            .iter()
            .map(|(m, e)| (*m, e.predict()))
            .collect();
        // Pool mutations happen in model order; the event pushes are
        // deferred past the worker borrow but consume `gseq` in the
        // same sequence.
        let mut boots: Vec<(ModelId, u32)> = Vec::new();
        for (model, predicted) in predictions {
            let pool = w.pools.entry(model).or_default();
            let desired = predicted.ceil() as u32;
            let have = pool.total_containers();
            for _ in have..desired {
                pool.boot_proactive();
            }
            if desired > have {
                boots.push((model, desired - have));
            }
        }
        for (model, count) in boots {
            for _ in 0..count {
                let k = self.serial_key(now + self.config.cold_start);
                core.queue.push(
                    k,
                    ShardEvent::BootDone {
                        worker: g,
                        model,
                        vm_epoch,
                    },
                );
            }
        }
    }

    fn reconfig_slots_free(&self) -> bool {
        let busy: usize = (0..self.shards())
            .map(|s| {
                let index = &self.core(s).index;
                index.routable_len() - index.accepting_len()
            })
            .sum();
        let cap = ((self.config.max_reconfig_fraction * self.total_workers() as f64).ceil()
            as usize)
            .max(1);
        busy < cap
    }

    // ---- spot lifecycle ---------------------------------------------

    fn on_revocation_check(&mut self, g: usize) {
        let (core, l) = self.slot(g);
        let w = &core.workers[l];
        if !matches!(w.status, WorkerStatus::Up) || !matches!(w.vm, Some((_, VmTier::Spot))) {
            return;
        }
        if let Some(lead) = self.market.roll_revocation(self.now, g) {
            let evict_at = self.now + lead;
            core.workers[l].status = WorkerStatus::Evicting { evict_at };
            core.refresh_index(l);
            self.cjournal(JournalEvent::EvictionNotice {
                worker: g,
                evict_at,
            });
            self.evictions += 1;
            self.push_coord(evict_at, CoordEvent::EvictionFinal { worker: g });
            self.procure_replacement(g);
        } else {
            self.push_coord(
                self.now + self.config.revocation_check,
                CoordEvent::RevocationCheck { worker: g },
            );
        }
    }

    fn procure_replacement(&mut self, g: usize) {
        let granted = self.market.try_acquire_spot(self.now, g);
        match self.config.procurement.replacement_tier(granted) {
            Some(tier) => {
                self.push_coord(
                    self.now + self.config.vm_startup,
                    CoordEvent::VmReady { worker: g, tier },
                );
            }
            None => {
                self.push_coord(
                    self.now + self.config.procurement_retry,
                    CoordEvent::ProcurementRetry { worker: g },
                );
            }
        }
    }

    fn on_eviction_final(&mut self, g: usize) {
        let (core, l) = self.slot(g);
        if !matches!(core.workers[l].status, WorkerStatus::Evicting { .. }) {
            return;
        }
        if let Some((vm, _)) = core.workers[l].vm.take() {
            self.ledger.close(vm, self.now);
        }
        self.cjournal(JournalEvent::Evicted { worker: g });
        let orphans = core.workers[l].drain_all_batches();
        core.workers[l].epoch += 1;
        match core.workers[l].pending_vm.take() {
            Some((vm, tier)) => self.install_vm(g, vm, tier),
            None => {
                core.workers[l].status = WorkerStatus::Down;
                core.refresh_index(l);
            }
        }
        for mut b in orphans {
            b.redispatched = true;
            self.dispatch_batch(b);
        }
    }

    fn on_vm_ready(&mut self, g: usize, tier: VmTier) {
        let (core, l) = self.slot(g);
        match core.workers[l].status {
            WorkerStatus::Evicting { .. } => {
                let vm = self.ledger.allocate_id();
                self.ledger.open(vm, tier, self.now);
                core.workers[l].pending_vm = Some((vm, tier));
            }
            WorkerStatus::Down => {
                let vm = self.ledger.allocate_id();
                self.ledger.open(vm, tier, self.now);
                self.install_vm(g, vm, tier);
            }
            WorkerStatus::Up => {
                // Defensive: double procurement should not happen. The
                // grant is declined before any ledger entry is opened —
                // an open-then-close at the same instant would bill
                // nothing but pollute the ledger's closed-VM count.
            }
        }
    }

    fn install_vm(&mut self, g: usize, vm: VmId, tier: VmTier) {
        let (core, l) = self.slot(g);
        let w = &mut core.workers[l];
        w.running.clear();
        w.reset_runtime(self.now);
        w.gpu.set_reconfig_delay(self.config.reconfig_delay);
        w.vm = Some((vm, tier));
        w.status = WorkerStatus::Up;
        core.refresh_index(l);
        self.cjournal(JournalEvent::VmInstalled { worker: g });
        if tier == VmTier::Spot {
            self.push_coord(
                self.now + self.config.revocation_check,
                CoordEvent::RevocationCheck { worker: g },
            );
        }
        self.drain_backlog();
    }

    fn on_procurement_retry(&mut self, g: usize) {
        let core = self.core(self.shard_of(g));
        if matches!(core.workers[core.local(g)].status, WorkerStatus::Down) {
            self.procure_replacement(g);
        }
    }

    fn drain_backlog(&mut self) {
        if self.backlog.is_empty() {
            return;
        }
        let routable = (0..self.shards()).any(|s| self.core(s).index.any_routable());
        if !routable {
            return;
        }
        let pending: Vec<Batch> = self.backlog.drain(..).collect();
        for b in pending {
            self.dispatch_batch(b);
        }
        self.stats.backlog_requeued += self.backlog.len() as u64;
    }

    // ---- teardown ---------------------------------------------------

    fn censor_remaining(&mut self) {
        let now = self.now;
        let mut leftovers: Vec<(ModelId, bool, Request)> = Vec::new();
        for g in 0..self.total_workers() {
            let (core, l) = self.slot(g);
            for b in core.workers[l].drain_all_batches() {
                for r in b.requests {
                    leftovers.push((b.model, b.strict, r));
                }
            }
        }
        for b in std::mem::take(&mut self.backlog) {
            for r in b.requests {
                leftovers.push((b.model, b.strict, r));
            }
        }
        for acc in self.accumulators.values_mut() {
            for r in acc.drain() {
                leftovers.push((r.model, r.strict, r));
            }
        }
        // Censored records go after every completion: into the last
        // shard's set, which the merge absorbs last.
        let measure_from = SimTime::ZERO + self.config.warmup;
        let metrics = &mut self.core_mut(self.shards() - 1).metrics;
        for (model, strict, r) in leftovers {
            if r.arrival < measure_from {
                continue;
            }
            self.censored += 1;
            let total_ms = now.saturating_since(r.arrival).as_millis_f64();
            metrics.push(RequestRecord {
                model,
                strict,
                arrival: r.arrival,
                completion: now,
                breakdown: LatencyBreakdown {
                    queueing_ms: total_ms,
                    ..LatencyBreakdown::default()
                },
            });
        }
    }

    /// Signals every spawned shard thread to exit. Must run before the
    /// thread scope closes.
    fn shutdown(&mut self) {
        for s in 0..self.shards() {
            if let Some(thread) = &self.threads[s] {
                self.syncs[s].epoch.store(SHUTDOWN, Ordering::Release);
                thread.unpark();
            }
        }
    }

    fn drive(&mut self, src: Source) {
        self.provision_initial_vms();
        match src {
            Source::Materialised(requests, duration) => {
                let per_core = requests.len() / self.shards() + 1;
                for s in 0..self.shards() {
                    self.core_mut(s).metrics.reserve(per_core);
                }
                self.prewarm_pools(&requests);
                self.run_arrivals(requests.into_iter(), duration);
            }
            Source::Streaming(arrivals, prewarm_scan) => {
                let duration = arrivals.duration();
                self.prewarm_pools_streaming(*prewarm_scan);
                self.run_arrivals(arrivals, duration);
            }
        }
    }

    fn finish(self) -> CoordOutputs {
        CoordOutputs {
            coord_pushed: self.coord_queue.pushed(),
            coord_popped: self.coord_queue.popped(),
            coord_peak: self.coord_queue.peak_len(),
            ledger: self.ledger,
            journal_buf: self.journal_buf,
            stats: self.stats,
            audit: self.audit,
            evictions: self.evictions,
            censored: self.censored,
            cutoff: self.cutoff,
        }
    }
}

/// What survives the coordinator after a run — everything the merge
/// needs that is not shard-local.
struct CoordOutputs {
    ledger: VmLedger,
    journal_buf: Vec<(EventKey, u64, JournalEvent)>,
    stats: EngineStats,
    audit: Auditor,
    evictions: u64,
    censored: u64,
    cutoff: SimTime,
    coord_pushed: u64,
    coord_popped: u64,
    coord_peak: usize,
}

// ---- entry points ---------------------------------------------------

/// [`crate::engine::run_trace_with_oracle`]'s engine run.
pub(crate) fn run_trace(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace: Trace,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let duration = trace.duration();
    run_sharded(
        config,
        scheme,
        Source::Materialised(trace.into_requests(), duration),
        oracle,
    )
}

/// [`crate::engine::run_stream_with_oracle`]'s engine run. Labeled RNG
/// streams are derived statelessly from `(seed, label)`, so the two
/// stream instances built here (arrivals and the prewarm pre-scan)
/// draw exactly the arrivals a materialised trace holds.
pub(crate) fn run_stream(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace_config: &TraceConfig,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let factory = RngFactory::new(config.seed);
    run_sharded(
        config,
        scheme,
        Source::Streaming(
            Box::new(trace_config.stream(&factory)),
            Box::new(trace_config.stream(&factory)),
        ),
        oracle,
    )
}

fn run_sharded(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    src: Source,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let factory = RngFactory::new(config.seed);
    let catalog = Catalog::new();
    let shards = config.effective_shards();
    let cells: Vec<ShardCell> = (0..shards)
        .map(|s| {
            ShardCell(UnsafeCell::new(ShardCore::new(
                s, shards, config, scheme, &factory,
            )))
        })
        .collect();
    let syncs: Vec<ShardSync> = (0..shards).map(|_| ShardSync::new()).collect();
    // Shard 0 always runs inline on the coordinator; extra shards get
    // threads while the budget lasts, the rest run inline too. A lone
    // shard needs no budget (and skips the host query).
    let spawnable = match (shards, config.shard_threads) {
        (1, _) => 0,
        (_, 0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        (_, budget) => budget,
    }
    .min(shards)
    .saturating_sub(1);
    let mut outputs = None;
    {
        let cells = &cells;
        let syncs = &syncs;
        let catalog = &catalog;
        std::thread::scope(|scope| {
            let mut co = Coordinator::new(
                config,
                catalog,
                cells,
                syncs,
                scheme.dispatch_policy(),
                oracle,
            );
            for s in 1..=spawnable {
                let cell = &cells[s];
                let sync = &syncs[s];
                let handle = scope.spawn(move || shard_worker_loop(cell, sync, config, catalog));
                co.threads[s] = Some(handle.thread().clone());
            }
            co.drive(src);
            co.shutdown();
            outputs = Some(co.finish());
        });
    }
    let cores: Vec<ShardCore> = cells.into_iter().map(|c| c.0.into_inner()).collect();
    merge_result(
        config,
        scheme.name().to_string(),
        outputs.expect("coordinator ran"),
        cores,
    )
}

// ---- merge ----------------------------------------------------------

fn merge_result(
    config: &ClusterConfig,
    scheme: String,
    out: CoordOutputs,
    mut cores: Vec<ShardCore>,
) -> SimulationResult {
    let w_total = config.workers;
    let now = out.cutoff;
    let mut ledger = out.ledger;
    // Close any still-open VMs in global worker order for final billing.
    let open: Vec<VmId> = global_order(cores.iter())
        .filter_map(|w| w.vm.map(|(id, _)| id))
        .collect();
    for id in open {
        ledger.close(id, now);
    }
    let cost = CostReport {
        total_usd: ledger.total_cost(now),
        spot_usd: ledger.cost_by_tier(VmTier::Spot, now),
        on_demand_usd: ledger.cost_by_tier(VmTier::OnDemand, now),
        evictions: out.evictions,
    };
    let n = w_total as f64;
    let per_gpu_compute_utilization: Vec<f64> = global_order(cores.iter())
        .map(|w| w.gpu.compute_utilization(now))
        .collect();
    let per_gpu_memory_utilization: Vec<f64> = global_order(cores.iter())
        .map(|w| w.gpu.memory_utilization(now))
        .collect();
    // A fixed float op order at every shard count: sum the per-GPU
    // values in global worker order, then divide once.
    let compute_utilization = per_gpu_compute_utilization.iter().sum::<f64>() / n;
    let memory_utilization = per_gpu_memory_utilization.iter().sum::<f64>() / n;
    let cold_starts: u64 = global_order(cores.iter()).map(Worker::cold_starts).sum();
    let proactive_boots: u64 = global_order(cores.iter())
        .map(Worker::proactive_boots)
        .sum();
    let reconfigs: u64 = cores.iter().map(|c| c.reconfigs).sum();

    let mut stats = out.stats;
    stats.events_pushed = out.coord_pushed;
    stats.events_popped = out.coord_popped;
    let mut peak = out.coord_peak;
    for c in &cores {
        stats.events_pushed += c.queue.pushed();
        stats.events_popped += c.queue.popped();
        // Documented deviation: the sum of per-queue peaks, an upper
        // bound on the number of events pending at once.
        peak += c.queue.peak_len();
        stats.index_updates += c.index.updates();
        stats.finish_events_pushed += c.stats.finish_events_pushed;
        stats.finish_events_all_jobs += c.stats.finish_events_all_jobs;
        stats.stale_finish_events += c.stats.stale_finish_events;
        stats.stale_boot_events += c.stats.stale_boot_events;
    }
    stats.peak_heap_len = peak;

    // Shards in ascending order; the last holds the censored requests.
    let mut metrics = std::mem::take(&mut cores[0].metrics);
    for c in &mut cores[1..] {
        metrics.absorb(std::mem::take(&mut c.metrics));
    }

    let mut strict_latency_timeline = TimeSeries::new();
    for (t, v) in Timeline::merge(
        cores
            .iter_mut()
            .map(|c| std::mem::take(&mut c.strict_latency))
            .collect(),
    ) {
        strict_latency_timeline.push(t, v);
    }
    let geometry_timeline = Timeline::merge(
        cores
            .iter_mut()
            .map(|c| std::mem::take(&mut c.geometry))
            .collect(),
    );

    let mut journal = Journal::new(config.journal_capacity);
    if config.journal_capacity > 0 {
        let mut entries = out.journal_buf;
        for c in &mut cores {
            entries.append(&mut c.journal_buf);
        }
        entries.sort_unstable_by_key(|e| (e.0, e.1));
        for (k, _, ev) in entries {
            journal.record(k.time, ev);
        }
    }

    SimulationResult {
        scheme,
        metrics,
        cost,
        compute_utilization,
        memory_utilization,
        per_gpu_compute_utilization,
        per_gpu_memory_utilization,
        cold_starts,
        reconfigs,
        censored: out.censored,
        geometry_timeline,
        strict_latency_timeline,
        journal,
        stats,
        audit: out.audit.into_report(),
        proactive_boots,
        duration: out.cutoff.saturating_since(SimTime::ZERO) - config.drain_grace,
        workers: w_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_simulation, run_simulation_streaming, run_simulation_with_oracle};
    use crate::schemes_for_test::AlwaysLargest;
    use protean_metrics::record::Class;
    use protean_sim::SimDuration;
    use protean_spot::SpotAvailability;
    use protean_trace::TraceShape;

    fn trace(rps: f64, secs: f64, strict_fraction: f64) -> TraceConfig {
        TraceConfig {
            shape: TraceShape::constant(rps),
            duration: SimDuration::from_secs(secs),
            strict_model: ModelId::ResNet50,
            strict_fraction,
            be_pool: vec![ModelId::MobileNet],
            be_rotation_period: SimDuration::from_secs(20.0),
            batch_arrivals: false,
        }
    }

    /// Asserts every digest-visible field matches bit for bit, the
    /// strict-latency timeline matches as a (time, value) multiset, and
    /// the journals record the same event population. (The journal's
    /// exact sequence may legally differ: two same-instant events on
    /// different shards merge in shard-tag order, while a single shard
    /// orders them by push sequence — their effects commute.)
    fn assert_equivalent(a: &SimulationResult, b: &SimulationResult) {
        assert_eq!(a.metrics.count(Class::All), b.metrics.count(Class::All));
        assert_eq!(
            a.metrics.count(Class::Strict),
            b.metrics.count(Class::Strict)
        );
        for class in [Class::All, Class::Strict, Class::BestEffort] {
            for q in [0.5, 0.99] {
                let la = a.metrics.latency_percentile_ms(class, q).map(f64::to_bits);
                let lb = b.metrics.latency_percentile_ms(class, q).map(f64::to_bits);
                assert_eq!(la, lb, "latency {class:?} p{q}");
            }
        }
        assert_eq!(a.cost.total_usd.to_bits(), b.cost.total_usd.to_bits());
        assert_eq!(a.cost.spot_usd.to_bits(), b.cost.spot_usd.to_bits());
        assert_eq!(
            a.compute_utilization.to_bits(),
            b.compute_utilization.to_bits()
        );
        assert_eq!(
            a.memory_utilization.to_bits(),
            b.memory_utilization.to_bits()
        );
        assert_eq!(a.cold_starts, b.cold_starts);
        assert_eq!(a.reconfigs, b.reconfigs);
        assert_eq!(a.censored, b.censored);
        assert_eq!(a.cost.evictions, b.cost.evictions);
        assert_eq!(a.proactive_boots, b.proactive_boots);
        assert_eq!(a.stats.finish_events_pushed, b.stats.finish_events_pushed);
        assert_eq!(a.stats.stale_finish_events, b.stats.stale_finish_events);
        assert_eq!(a.stats.stale_boot_events, b.stats.stale_boot_events);
        assert_eq!(a.stats.dispatch_batches, b.stats.dispatch_batches);
        assert_eq!(a.stats.events_popped, b.stats.events_popped);

        let sorted = |r: &SimulationResult| {
            let mut v: Vec<(u64, u64)> = r
                .strict_latency_timeline
                .points()
                .iter()
                .map(|&(t, x)| (t.as_micros(), x.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(a), sorted(b));
        assert_eq!(a.geometry_timeline.len(), b.geometry_timeline.len());
        assert_eq!(a.journal.entries().len(), b.journal.entries().len());
        let journal_counts = |r: &SimulationResult| {
            let mut v: Vec<u8> = r
                .journal
                .entries()
                .iter()
                .map(|(_, e)| match e {
                    JournalEvent::BatchSealed { .. } => 0u8,
                    JournalEvent::BatchDispatched { .. } => 1,
                    JournalEvent::ColdStart { .. } => 2,
                    JournalEvent::BatchPlaced { .. } => 3,
                    JournalEvent::BatchFinished { .. } => 4,
                    JournalEvent::Reconfigured { .. } => 5,
                    JournalEvent::EvictionNotice { .. } => 6,
                    JournalEvent::Evicted { .. } => 7,
                    JournalEvent::VmInstalled { .. } => 8,
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(journal_counts(a), journal_counts(b));
    }

    fn run_pair(
        config: &ClusterConfig,
        shards: usize,
        threads: usize,
        t: &TraceConfig,
    ) -> (SimulationResult, SimulationResult) {
        let seq = run_simulation(config, &AlwaysLargest, t);
        let mut sharded = config.clone();
        sharded.shards = shards;
        sharded.shard_threads = threads;
        let par = run_simulation(&sharded, &AlwaysLargest, t);
        (seq, par)
    }

    #[test]
    fn sharded_inline_matches_sequential() {
        let mut config = ClusterConfig::small_test();
        config.journal_capacity = 4096;
        let t = trace(400.0, 30.0, 0.5);
        let (seq, par) = run_pair(&config, 2, 1, &t);
        assert_equivalent(&seq, &par);
    }

    #[test]
    fn sharded_threaded_matches_inline_sharded() {
        let config = ClusterConfig::small_test();
        let t = trace(400.0, 30.0, 0.5);
        let (seq, par) = run_pair(&config, 4, 4, &t);
        assert_equivalent(&seq, &par);
    }

    #[test]
    fn sharded_streaming_matches_sequential_materialised() {
        let mut config = ClusterConfig::small_test();
        config.aggregate_metrics = true;
        let t = trace(300.0, 20.0, 0.5);
        let seq = run_simulation(&config, &AlwaysLargest, &t);
        let mut sharded = config.clone();
        sharded.shards = 2;
        sharded.shard_threads = 2;
        let par = run_simulation_streaming(&sharded, &AlwaysLargest, &t);
        assert_equivalent(&seq, &par);
    }

    #[test]
    fn sharded_scripted_eviction_matches_with_audit() {
        let mut config = ClusterConfig::small_test();
        config.workers = 3;
        config.procurement = ProcurementPolicy::Hybrid;
        config.availability = SpotAvailability::Low;
        config.revocation_check = SimDuration::from_secs(5.0);
        config.vm_startup = SimDuration::from_secs(5.0);
        config.procurement_retry = SimDuration::from_secs(5.0);
        config.audit = true;
        let t = trace(200.0, 60.0, 0.5);
        let script = || {
            crate::fault::ScriptedMarket::new().evict(
                0,
                SimTime::from_secs(10.0),
                SimDuration::from_secs(20.0),
            )
        };
        let mut market = script();
        let seq = run_simulation_with_oracle(&config, &AlwaysLargest, &t, &mut market);
        let mut sharded = config.clone();
        sharded.shards = 3;
        sharded.shard_threads = 2;
        let mut market = script();
        let par = run_simulation_with_oracle(&sharded, &AlwaysLargest, &t, &mut market);
        assert_eq!(par.cost.evictions, 1);
        assert!(par.audit.is_clean(), "{:?}", par.audit.violations);
        assert!(par.audit.checks > 0);
        assert_eq!(seq.audit.checks, par.audit.checks);
        assert_equivalent(&seq, &par);
    }

    #[test]
    fn sharded_slo_compliance_matches() {
        let mut config = ClusterConfig::small_test();
        config.cold_start = SimDuration::from_secs(2.0);
        let t = trace(100.0, 40.0, 0.5);
        let (seq, par) = run_pair(&config, 4, 1, &t);
        let catalog = Catalog::new();
        let slo = |m: ModelId| catalog.profile(m).slo();
        let a = seq.metrics.slo_compliance(&slo);
        let b = par.metrics.slo_compliance(&slo);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(b > 0.9, "compliance {b}");
    }

    #[test]
    fn coarsened_runs_match_per_arrival_epochs_and_reconcile() {
        let mut config = ClusterConfig::small_test();
        config.audit = true;
        config.shards = 4;
        config.shard_threads = 1;
        let t = trace(400.0, 30.0, 0.5);
        let mut per_arrival = config.clone();
        per_arrival.max_epoch_arrivals = 1;
        let base = run_simulation(&per_arrival, &AlwaysLargest, &t);
        config.max_epoch_arrivals = 64;
        let coarse = run_simulation(&config, &AlwaysLargest, &t);
        assert_equivalent(&base, &coarse);
        assert!(base.audit.is_clean(), "{:?}", base.audit.violations);
        assert!(coarse.audit.is_clean(), "{:?}", coarse.audit.violations);
        // Per-arrival epochs: every run is a singleton (arrivals and
        // window expiries alike — cap 1 cuts after the first member).
        assert_eq!(base.stats.epochs, base.stats.arrivals + base.stats.expiries);
        assert_eq!(base.stats.coalesced_arrivals, 0);
        assert_eq!(base.stats.coalesced_expiries, 0);
        // Coarsening actually coalesces on a dispatch-dense trace —
        // arrivals and window expiries both — and the extended counter
        // triad reconciles.
        assert!(coarse.stats.epochs < coarse.stats.arrivals);
        assert!(coarse.stats.coalesced_arrivals > 0);
        assert!(coarse.stats.coalesced_expiries > 0);
        assert_eq!(coarse.stats.expiries, base.stats.expiries);
        assert_eq!(
            coarse.stats.epochs + coarse.stats.coalesced_arrivals + coarse.stats.coalesced_expiries,
            coarse.stats.arrivals + coarse.stats.expiries
        );
        assert_eq!(coarse.stats.run_cutoffs.total(), coarse.stats.epochs);
        assert_eq!(base.stats.run_cutoffs.total(), base.stats.epochs);
    }

    #[test]
    fn run_is_cut_exactly_at_a_reconfig_trigger_arrival() {
        // Ten strict arrivals 1 ms apart straddling the t = 2 s monitor
        // tick (the reconfiguration trigger). The sixth arrival lands
        // exactly on the tick and must win its `ta <= te` tie — then
        // the run must cut *there*, because the seventh arrival would
        // need a phase after the serially-ordered tick.
        let requests: Vec<Request> = (0..10)
            .map(|i| Request {
                id: protean_trace::RequestId(i),
                arrival: SimTime::from_millis(1995.0 + i as f64),
                model: ModelId::ResNet50,
                strict: true,
            })
            .collect();
        let t = Trace::from_parts(requests.clone(), SimDuration::from_secs(3.0));
        let mut config = ClusterConfig::small_test();
        config.audit = true;
        config.shards = 2;
        config.shard_threads = 1;
        let par = crate::engine::run_simulation_on(&config, &AlwaysLargest, t);
        assert!(par.audit.is_clean(), "{:?}", par.audit.violations);
        assert_eq!(par.stats.arrivals, 10);
        // Run 1: arrivals at 1.995..=2.000 s (six, the tick-tied one
        // included), cut by the serial monitor tick. Run 2: the four
        // remaining arrivals, cut by the trace end.
        assert_eq!(par.stats.epochs, 2);
        assert_eq!(par.stats.coalesced_arrivals, 8);
        assert_eq!(par.stats.run_cutoffs.serial_event, 1);
        assert_eq!(par.stats.run_cutoffs.trace_end, 1);
        assert_eq!(par.stats.run_cutoffs.total(), par.stats.epochs);
        // Still bit-identical to the single-shard run of the same trace.
        let seq = crate::engine::run_simulation_on(
            &ClusterConfig {
                audit: true,
                ..ClusterConfig::small_test()
            },
            &AlwaysLargest,
            Trace::from_parts(requests, SimDuration::from_secs(3.0)),
        );
        assert_equivalent(&seq, &par);
    }

    #[test]
    fn expiry_run_is_cut_exactly_at_the_first_non_dispatch_coord_event() {
        // Two strict arrivals for *different* models at 1.900 s and
        // 1.920 s open two batch accumulators, whose 50 ms window
        // expiries fire at 1.950 s and 1.970 s — both before the t = 2 s
        // monitor tick — and a third arrival lands beyond the tick at
        // 2.100 s. With expiry coalescing on, one run covers the first
        // four dispatch events (arrival, arrival, expiry, expiry): each
        // expiry is the coordinator-queue head when admitted and no
        // shard holds anything below its key (cold-start `BootDone`s
        // land ~8 s out). The run must then cut *exactly* at the tick —
        // the first non-dispatch coordinator event, which beats the
        // 2.100 s arrival — and the tick itself is handled as a plain
        // serial event, not an epoch. The second run is the last
        // arrival plus its own window expiry, ending with the trace.
        // The single-shard run peels the identical runs.
        let requests = vec![
            Request {
                id: protean_trace::RequestId(0),
                arrival: SimTime::from_millis(1900.0),
                model: ModelId::ResNet50,
                strict: true,
            },
            Request {
                id: protean_trace::RequestId(1),
                arrival: SimTime::from_millis(1920.0),
                model: ModelId::GoogleNet,
                strict: true,
            },
            Request {
                id: protean_trace::RequestId(2),
                arrival: SimTime::from_millis(2100.0),
                model: ModelId::ResNet50,
                strict: true,
            },
        ];
        let t = Trace::from_parts(requests.clone(), SimDuration::from_secs(3.0));
        let mut config = ClusterConfig::small_test();
        config.audit = true;
        config.shards = 2;
        config.shard_threads = 1;
        let par = crate::engine::run_simulation_on(&config, &AlwaysLargest, t);
        assert!(par.audit.is_clean(), "{:?}", par.audit.violations);
        assert_eq!(par.stats.arrivals, 3);
        assert_eq!(par.stats.expiries, 3);
        assert_eq!(par.stats.epochs, 2);
        assert_eq!(par.stats.coalesced_arrivals, 1);
        assert_eq!(par.stats.coalesced_expiries, 3);
        assert_eq!(par.stats.run_cutoffs.serial_event, 1);
        assert_eq!(par.stats.run_cutoffs.trace_end, 1);
        assert_eq!(par.stats.run_cutoffs.total(), par.stats.epochs);

        let seq = crate::engine::run_simulation_on(
            &ClusterConfig {
                audit: true,
                ..ClusterConfig::small_test()
            },
            &AlwaysLargest,
            Trace::from_parts(requests, SimDuration::from_secs(3.0)),
        );
        assert!(seq.audit.is_clean(), "{:?}", seq.audit.violations);
        assert_eq!(seq.stats.expiries, 3);
        assert_eq!(seq.stats.epochs, 2);
        assert_eq!(seq.stats.coalesced_expiries, 3);
        assert_eq!(seq.stats.run_cutoffs, par.stats.run_cutoffs);
        assert_equivalent(&seq, &par);
    }

    #[test]
    fn journal_pressure_cuts_runs_and_stays_equivalent() {
        let mut config = ClusterConfig::small_test();
        config.journal_capacity = 512;
        let t = trace(400.0, 30.0, 0.5);
        let (seq, par) = run_pair(&config, 2, 1, &t);
        assert_equivalent(&seq, &par);
        assert!(
            par.stats.run_cutoffs.journal_pressure > 0,
            "expected journal-pressure cutoffs, got {:?}",
            par.stats.run_cutoffs
        );
        assert_eq!(
            par.stats.epochs + par.stats.coalesced_arrivals + par.stats.coalesced_expiries,
            par.stats.arrivals + par.stats.expiries
        );
        assert_eq!(par.stats.run_cutoffs.total(), par.stats.epochs);
    }

    #[test]
    fn shard_count_never_exceeds_workers() {
        let mut config = ClusterConfig::small_test();
        config.workers = 2;
        config.shards = 64;
        config.shard_threads = 1;
        let t = trace(100.0, 20.0, 0.5);
        let r = run_simulation(&config, &AlwaysLargest, &t);
        assert!(r.metrics.count(Class::All) > 0);
    }

    /// Each shard's dispatch index is sized to the workers it owns —
    /// together the shards hold `W` slots, not `S·W` — including when
    /// `S` does not divide `W`, and its keys name global workers.
    #[test]
    fn each_shard_index_spans_exactly_its_owned_workers() {
        let mut config = ClusterConfig::small_test();
        config.workers = 10;
        let factory = RngFactory::new(config.seed);
        for shards in [1, 3, 8] {
            for s in 0..shards {
                let mut core = ShardCore::new(s, shards, &config, &AlwaysLargest, &factory);
                let owned = (s..config.workers).step_by(shards).count();
                assert_eq!(core.workers.len(), owned, "S = {shards}, shard {s}");
                for l in 0..owned {
                    core.refresh_index(l);
                }
                // `verify_partition` flags any index whose width is not
                // the owned worker count, and any key naming a worker
                // in the wrong slot.
                let problems = core.index.verify_partition(&core.workers);
                assert!(problems.is_empty(), "S = {shards}, shard {s}: {problems:?}");
                // Idle fleet: the least-loaded tie breaks to the shard's
                // lowest global index, its first owned worker.
                assert_eq!(core.index.least_loaded_routable(), Some(s));
            }
        }
    }
}
