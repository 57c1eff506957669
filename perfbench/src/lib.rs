//! The repository benchmark: three named workloads driven through the
//! simulator's public entry points only.
//!
//! Every workload runs PROTEAN (`ProteanBuilder::paper()`) on a streamed
//! open-loop trace (`TraceConfig::stream`) with `aggregate_metrics` on,
//! through `run_stream_with_oracle`. Arrivals are fixed by the seeded
//! trace generator, so the load never depends on how fast the host is
//! and every latency is measured from the request's scheduled arrival.
//!
//! This library holds what both binaries share: the workload table, the
//! simulated metrics and output checks, the outside-in probes
//! ([`probe`]) and the child-process record format ([`record`]).

pub mod probe;
pub mod record;

use protean::ProteanBuilder;
use protean_cluster::{run_stream_with_oracle, ClusterConfig, SimulationResult};
use protean_experiments::golden;
use protean_experiments::setup::{PaperSetup, LANGUAGE_RPS, VISION_RPS};
use protean_metrics::record::Class;
use protean_metrics::MetricsSet;
use protean_models::{Catalog, ModelId};
use protean_sim::{RngFactory, SimDuration, SimTime};
use protean_spot::{ProcurementPolicy, SpotAvailability, SpotMarket};
use protean_trace::{TraceConfig, TraceShape};

/// One named benchmark cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Worker nodes (one GPU each).
    pub workers: usize,
    /// `ClusterConfig::shards` (1 = sequential engine).
    pub shards: usize,
    /// `ClusterConfig::shard_threads`, never 0 so no run sizes itself
    /// to the host.
    pub shard_threads: usize,
    /// Simulated trace length of one simulation, seconds.
    pub sim_secs: f64,
    /// Measurement warmup, seconds; well inside `sim_secs`.
    pub warmup_secs: f64,
    /// Simulations per timed run, each on its own seed (see
    /// [`sub_seed`]). Their latency histograms are pooled for the
    /// simulated metrics, and `req_per_s` is the median of their rates.
    pub sims: usize,
    /// Set-ups timed right before each simulation, in its process;
    /// `setup_s` is the median of all of them.
    pub setups_per_sim: usize,
    /// Vision model on a Twitter-shaped trace with hybrid spot
    /// procurement; otherwise the language model on the Wiki trace with
    /// on-demand VMs.
    pub spot: bool,
    /// Serve best-effort traffic from the BE pool's first model only,
    /// instead of re-drawing the model from the pool every 20 s. A run
    /// too short to see many draws would otherwise have every latency
    /// metric decided by the one model its seed happens to draw.
    pub pinned_be_model: bool,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    // The reference soak: fleet state fits in cache, so per-request
    // engine and policy work dominates.
    Workload {
        name: "diurnal-256",
        workers: 256,
        shards: 1,
        shard_threads: 1,
        sim_secs: 1200.0,
        warmup_secs: 60.0,
        sims: 12,
        setups_per_sim: 10,
        spot: false,
        pinned_be_model: false,
    },
    // Same per-worker load on a fleet far larger than cache: monitor
    // ticks visit every worker and set-up grows with the fleet.
    Workload {
        name: "planetary-100k",
        workers: 100_000,
        shards: 8,
        shard_threads: 2,
        sim_secs: 4.0,
        warmup_secs: 1.0,
        sims: 1,
        setups_per_sim: 2,
        spot: false,
        pinned_be_model: true,
    },
    // Fig. 9's cost/SLO trade-off at fleet scale on the threaded path:
    // large vision batches, evictions, procurement and cold starts.
    Workload {
        name: "spot-vision-2048",
        workers: 2048,
        shards: 2,
        shard_threads: 2,
        sim_secs: 60.0,
        warmup_secs: 10.0,
        sims: 4,
        setups_per_sim: 8,
        spot: true,
        pinned_be_model: false,
    },
];

/// The seed of simulation `i` of a timed run started with `--seed seed`.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed * 1000 + i as u64
}

/// Trace length of the near-empty run that measures set-up.
const SETUP_TRACE_SECS: f64 = 0.001;

/// A digest-identical engine variant. Every arm must reproduce the
/// base arm's simulated metrics bit for bit; the slower arms exist to
/// show that `req_per_s` registers a real slowdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The configuration as listed in [`WORKLOADS`].
    Base,
    /// `reference_dispatch = true`: the O(W) linear-scan dispatcher.
    ReferenceDispatch,
    /// `max_epoch_arrivals = 1`: one sharded epoch per arrival.
    PerArrival,
}

impl Arm {
    /// Command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Arm::Base => "base",
            Arm::ReferenceDispatch => "reference_dispatch",
            Arm::PerArrival => "per_arrival",
        }
    }

    /// Parses [`Arm::name`].
    pub fn parse(s: &str) -> Option<Arm> {
        [Arm::Base, Arm::ReferenceDispatch, Arm::PerArrival]
            .into_iter()
            .find(|a| a.name() == s)
    }
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The cluster configuration of this workload under `arm`.
    pub fn config(&self, seed: u64, arm: Arm) -> ClusterConfig {
        let mut c = ClusterConfig::paper_default();
        c.seed = seed;
        c.workers = self.workers;
        c.shards = self.shards;
        c.shard_threads = self.shard_threads;
        c.aggregate_metrics = true;
        c.warmup = SimDuration::from_secs(self.warmup_secs);
        if self.spot {
            // Fig. 9's cadence: short runs need denser revocation and
            // procurement events than the hour-scale defaults.
            c.procurement = ProcurementPolicy::Hybrid;
            c.availability = SpotAvailability::Moderate;
            c.revocation_check = SimDuration::from_secs(20.0);
            c.vm_startup = SimDuration::from_secs(20.0);
            c.procurement_retry = SimDuration::from_secs(20.0);
            // Drain for longer than a cold start, so a batch that needs
            // a fresh container near the end of the trace completes
            // instead of being censored.
            c.drain_grace = SimDuration::from_secs(10.0);
        }
        match arm {
            Arm::Base => {}
            Arm::ReferenceDispatch => c.reference_dispatch = true,
            Arm::PerArrival => c.max_epoch_arrivals = 1,
        }
        c
    }

    /// The timed run's trace.
    pub fn trace(&self) -> TraceConfig {
        self.trace_of(self.sim_secs)
    }

    /// The near-empty trace of a set-up run: same fleet, same
    /// configuration, (almost) no arrivals.
    pub fn setup_trace(&self) -> TraceConfig {
        self.trace_of(SETUP_TRACE_SECS)
    }

    fn trace_of(&self, secs: f64) -> TraceConfig {
        // The trace generator is seeded from the cluster seed inside
        // `run_stream_with_oracle`; `PaperSetup::seed` is not used here.
        let setup = PaperSetup {
            duration_secs: secs,
            seed: 0,
        };
        let per_8_workers = self.workers as f64 / 8.0;
        let mut t = if self.spot {
            let mut t = setup.twitter_trace(ModelId::ResNet50);
            t.shape = TraceShape::twitter(VISION_RPS * per_8_workers);
            t
        } else {
            let mut t = setup.wiki_trace(ModelId::Albert);
            t.shape = TraceShape::wiki(LANGUAGE_RPS * per_8_workers);
            t
        };
        if self.pinned_be_model {
            t.be_pool.truncate(1);
        }
        t
    }
}

/// The production spot market of a run, seeded exactly as
/// `run_simulation_streaming` seeds it.
pub fn market(config: &ClusterConfig) -> SpotMarket {
    SpotMarket::new(
        config.availability,
        RngFactory::new(config.seed).stream("spot.market"),
    )
}

/// One simulation of PROTEAN against the production market, through
/// the public streaming entry point.
pub fn simulate_protean(config: &ClusterConfig, trace: &TraceConfig) -> SimulationResult {
    run_stream_with_oracle(config, &ProteanBuilder::paper(), trace, &mut market(config))
}

/// What the benchmark's own pass over the trace stream counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Drawn {
    /// Every request in the trace.
    pub total: u64,
    /// Requests arriving at or after the warmup.
    pub measured: u64,
}

/// Draws the run's trace once, the way the engine will, and counts it.
pub fn draw(config: &ClusterConfig, trace: &TraceConfig) -> Drawn {
    let measure_from = SimTime::ZERO + config.warmup;
    let mut drawn = Drawn::default();
    for r in trace.stream(&RngFactory::new(config.seed)) {
        drawn.total += 1;
        drawn.measured += u64::from(r.arrival >= measure_from);
    }
    drawn
}

/// The simulated end-to-end metrics of one run. They depend only on the
/// seed and the configuration, never on the host.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimMetrics {
    /// Requests recorded after warmup (completed plus censored).
    pub recorded: u64,
    /// Strict requests recorded after warmup.
    pub recorded_strict: u64,
    /// Best-effort requests recorded after warmup.
    pub recorded_be: u64,
    /// Requests still incomplete at the cutoff.
    pub censored: u64,
    /// Strict requests within their SLO, percent; censored requests
    /// count as misses.
    pub strict_slo_pct: f64,
    /// Strict latency median, ms.
    pub strict_p50_ms: f64,
    /// Strict latency 99th percentile, ms.
    pub strict_p99_ms: f64,
    /// Best-effort latency 99th percentile, ms.
    pub be_p99_ms: f64,
    /// Dollar cost of the run per million requests in the trace.
    pub cost_usd_per_mreq: f64,
    /// Requests not censored ÷ requests recorded.
    pub completed_frac: f64,
}

/// Simulations folded together: latency histograms merged, request
/// counts and dollars summed.
#[derive(Debug, Clone)]
pub struct Pool {
    metrics: MetricsSet,
    censored: u64,
    cost_usd: f64,
    trace_requests: u64,
}

impl Default for Pool {
    fn default() -> Self {
        Pool {
            metrics: MetricsSet::aggregate(),
            censored: 0,
            cost_usd: 0.0,
            trace_requests: 0,
        }
    }
}

impl Pool {
    /// A pool of the one `result`, whose trace held `trace_requests`.
    pub fn of(result: &SimulationResult, trace_requests: u64) -> Pool {
        let mut pool = Pool::default();
        pool.add(result, trace_requests);
        pool
    }

    /// Folds in `result`, whose trace held `trace_requests`.
    pub fn add(&mut self, result: &SimulationResult, trace_requests: u64) {
        self.metrics.absorb(result.metrics.clone());
        self.censored += result.censored;
        self.cost_usd += result.cost.total_usd;
        self.trace_requests += trace_requests;
    }
}

/// The strict model's SLO in a run of `config` over `trace`, ms.
pub fn strict_slo_ms(config: &ClusterConfig, trace: &TraceConfig) -> f64 {
    let catalog = Catalog::new();
    let slo = SimulationResult::slo_fn(&catalog, config.slo_multiplier)(trace.strict_model);
    slo.as_millis_f64()
}

impl SimMetrics {
    /// Reads the metrics off a pool of simulations whose strict SLO is
    /// `slo_ms`. Cost is per request of the whole traces, since the
    /// ledger bills the whole run, warmup included.
    ///
    /// Results do not split censored requests by class, so every
    /// censored request is taken off the strict within-SLO count: a
    /// lower bound, exact whenever nothing is censored.
    pub fn of(pool: &Pool, slo_ms: f64) -> SimMetrics {
        let m = &pool.metrics;
        let recorded = m.count(Class::All) as u64;
        let recorded_strict = m.count(Class::Strict) as u64;
        let met = strict_met(m, slo_ms).saturating_sub(pool.censored);
        let pct = |class, q| quantile_ms(m, class, q);
        SimMetrics {
            recorded,
            recorded_strict,
            recorded_be: m.count(Class::BestEffort) as u64,
            censored: pool.censored,
            strict_slo_pct: 100.0 * met as f64 / recorded_strict.max(1) as f64,
            strict_p50_ms: pct(Class::Strict, 0.5),
            strict_p99_ms: pct(Class::Strict, 0.99),
            be_p99_ms: pct(Class::BestEffort, 0.99),
            cost_usd_per_mreq: pool.cost_usd * 1e6 / pool.trace_requests.max(1) as f64,
            completed_frac: completed_frac(recorded, pool.censored),
        }
    }

    /// `(name, value)` for every simulated end-to-end metric.
    pub fn named(&self) -> [(&'static str, f64); 6] {
        [
            ("strict_slo_pct", self.strict_slo_pct),
            ("strict_p50_ms", self.strict_p50_ms),
            ("strict_p99_ms", self.strict_p99_ms),
            ("be_p99_ms", self.be_p99_ms),
            ("cost_usd_per_mreq", self.cost_usd_per_mreq),
            ("completed_frac", self.completed_frac),
        ]
    }

    /// Bit-exact rendering of every field, for equality checks across
    /// runs of the same seed.
    pub fn fingerprint(&self) -> String {
        let bits: Vec<String> = self
            .named()
            .iter()
            .map(|(n, v)| format!("{n}={:016x}", v.to_bits()))
            .collect();
        format!(
            "rec={} strict={} be={} cens={} {}",
            self.recorded,
            self.recorded_strict,
            self.recorded_be,
            self.censored,
            bits.join(" ")
        )
    }
}

fn completed_frac(recorded: u64, censored: u64) -> f64 {
    recorded.saturating_sub(censored) as f64 / recorded.max(1) as f64
}

/// The latency of the `r`-th fastest request of `class` (1-based), to
/// histogram-bucket resolution. The nearest-rank quantile at
/// `q = (r - 0.5) / n` lands on rank `r` exactly, and it never falls as
/// `r` grows, so callers can bisect on it.
fn latency_of_rank(metrics: &MetricsSet, class: Class, n: u64, r: u64) -> f64 {
    metrics
        .latency_percentile_ms(class, (r as f64 - 0.5) / n as f64)
        .expect("rank within a non-empty class")
}

/// The first rank in `lo..hi` for which `pred` holds, or `hi` if none;
/// `pred` must hold for every rank after the first that it holds for.
fn first_rank(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Strict requests whose latency is at most `slo_ms`, read off the
/// strict histogram with `MetricsSet::latency_percentile_ms` only: the
/// largest rank whose latency is within the SLO. The count is exact
/// except for requests in the bucket that holds the SLO itself.
/// `MetricsSet::slo_compliance` cannot be used: it reads the per-request
/// records, which aggregate mode does not keep, and reports 1.0.
pub fn strict_met(metrics: &MetricsSet, slo_ms: f64) -> u64 {
    let n = metrics.count(Class::Strict) as u64;
    let over = |r| latency_of_rank(metrics, Class::Strict, n, r) > slo_ms;
    first_rank(1, n + 1, over) - 1
}

/// The `q`-quantile latency of `class`, ms, interpolated inside its
/// histogram bucket; 0 for an empty class.
///
/// `latency_percentile_ms` reports a bucket's midpoint, so a steady
/// workload would report the same figure for every seed. Here the
/// quantile's rank is placed within the ranks that share its bucket, and
/// the latency interpolated geometrically across the bucket, whose edges
/// lie half a bucket either side of the midpoint (aggregate mode keeps
/// 128 log-spaced buckets per decade).
pub fn quantile_ms(metrics: &MetricsSet, class: Class, q: f64) -> f64 {
    let n = metrics.count(class) as u64;
    if n == 0 {
        return 0.0;
    }
    let at = |r| latency_of_rank(metrics, class, n, r);
    let rank = ((n as f64 * q).ceil() as u64).clamp(1, n);
    let mid = at(rank);
    let first = first_rank(1, rank, |r| at(r) >= mid);
    let last = first_rank(rank, n + 1, |r| at(r) > mid) - 1;
    let frac = ((rank - first) as f64 + 0.5) / (last - first + 1) as f64;
    let half_bucket = 10f64.powf(0.5 / 128.0);
    let latency = mid / half_bucket * (half_bucket * half_bucket).powf(frac);
    latency.clamp(at(1), at(n))
}

/// The digest that pins a run: the repository's golden digest plus the
/// benchmark's own simulated metrics, bit for bit.
pub fn digest(result: &SimulationResult, sim: &SimMetrics) -> String {
    format!("{} | {}", golden::digest(result), sim.fingerprint())
}

/// Checks one run's output. Returns every violation found; an empty
/// list means the run is correct.
pub fn check_run(
    drawn: &Drawn,
    sim: &SimMetrics,
    result: &SimulationResult,
    config: &ClusterConfig,
) -> Vec<String> {
    let mut errors = Vec::new();
    if drawn.measured == 0 || sim.recorded_strict == 0 || sim.recorded_be == 0 {
        errors.push(format!(
            "the warmup swallows the run: {} post-warmup arrivals, {} strict and {} \
             best-effort recorded",
            drawn.measured, sim.recorded_strict, sim.recorded_be
        ));
    }
    if sim.recorded != drawn.measured {
        errors.push(format!(
            "request conservation: {} recorded, {} post-warmup arrivals drawn",
            sim.recorded, drawn.measured
        ));
    }
    if sim.recorded_strict + sim.recorded_be != sim.recorded {
        errors.push("class counts do not add up to the recorded total".into());
    }
    if sim.censored > sim.recorded
        || sim.completed_frac.to_bits() != completed_frac(sim.recorded, result.censored).to_bits()
    {
        errors.push(format!(
            "completed_frac {} inconsistent with {} censored of {} recorded",
            sim.completed_frac, result.censored, sim.recorded
        ));
    }
    for (name, v) in sim.named() {
        if !v.is_finite() || v <= 0.0 {
            errors.push(format!("{name} = {v} is not a positive number"));
        }
    }
    let s = &result.stats;
    if config.effective_shards() > 1 {
        if s.epochs + s.coalesced_arrivals + s.coalesced_expiries != s.arrivals + s.expiries {
            errors.push(format!(
                "epoch conservation: {} epochs + {} coalesced arrivals + {} coalesced \
                 expiries != {} arrivals + {} expiries",
                s.epochs, s.coalesced_arrivals, s.coalesced_expiries, s.arrivals, s.expiries
            ));
        }
        if s.run_cutoffs.total() != s.epochs {
            errors.push(format!(
                "cut conservation: {} cuts for {} epochs",
                s.run_cutoffs.total(),
                s.epochs
            ));
        }
    }
    errors
}

/// Peak resident set (VmHWM) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The end-to-end metrics, `(name, unit)`, as `BENCHMARK.json` lists
/// them. Untraced runs print exactly these.
pub const END_TO_END: [(&str, &str); 9] = [
    ("req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_mem_mb", "MB"),
    ("strict_slo_pct", "%"),
    ("strict_p50_ms", "ms"),
    ("strict_p99_ms", "ms"),
    ("be_p99_ms", "ms"),
    ("cost_usd_per_mreq", "USD/Mreq"),
    ("completed_frac", "fraction"),
];

/// `req_per_s`'s regression bound in `BENCHMARK.json`; the sensitivity
/// self-test's slower arms must drop the metric by more than this.
pub const REQ_PER_S_BOUND: f64 = 0.25;

/// The per-layer metrics, `(name, unit)`, as `BENCHMARK.json` lists
/// them. Traced runs print exactly these.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("core.place_calls", "count"),
    ("core.place_none_frac", "fraction"),
    ("core.place_s", "s"),
    ("core.place_ns_per_call", "ns"),
    ("core.reconfigure_calls", "count"),
    ("core.reconfigure_changes", "count"),
    ("core.reconfigure_s", "s"),
    ("core.build_s", "s"),
    ("spot.ledger_s", "s"),
    ("spot.revocation_rolls", "count"),
    ("spot.revocations", "count"),
    ("spot.acquire_calls", "count"),
    ("spot.acquire_granted_frac", "fraction"),
    ("spot.oracle_s", "s"),
    ("spot.evictions", "count"),
    ("trace.draw_s", "s"),
    ("trace.requests", "count"),
    ("cluster.ns_per_event", "ns"),
    ("cluster.events_per_request", "events/req"),
    ("cluster.scan_visits_per_batch", "visits/batch"),
    ("cluster.index_updates_per_batch", "updates/batch"),
    ("cluster.stale_finish_frac", "fraction"),
    ("cluster.peak_heap_len", "count"),
    ("cluster.backlog_requeued", "count"),
    ("cluster.cold_starts", "count"),
    ("cluster.reconfigs", "count"),
    ("cluster.self_s", "s"),
    ("cluster.sharded.epochs", "count"),
    ("cluster.sharded.epochs_per_dispatch_event", "epochs/event"),
    ("cluster.sharded.coalesced_arrivals", "count"),
    ("cluster.sharded.coalesced_expiries", "count"),
    ("cluster.sharded.cut_shard_conflict", "count"),
    ("cluster.sharded.cut_expiry_shard_conflict", "count"),
    ("cluster.sharded.cut_serial_event", "count"),
    ("cluster.sharded.cut_max_arrivals", "count"),
    ("cluster.sharded.serial_cut_share", "fraction"),
    ("alloc.calls_per_request", "calls/req"),
    ("alloc.bytes_per_request", "B/req"),
    ("metrics.summary_s", "s"),
    ("bench.tracing_overhead_frac", "fraction"),
    ("span.setup_s", "s"),
    ("span.run_s", "s"),
];

/// Command-line flags as `--flag value` pairs.
#[derive(Debug, Clone)]
pub struct Args(Vec<String>);

impl Args {
    /// This process's arguments.
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1).collect())
    }

    /// The value after `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    /// Whether `flag` appears.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// The value after `flag` parsed as `T`, or `default` when absent.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }

    /// The `(workload, seed, arm)` a child process was started for.
    pub fn cell(&self) -> Result<(&'static Workload, u64, Arm), String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        let workload = Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
        let seed = self.parsed("--seed", 1u64)?;
        let arm = self.value("--arm").unwrap_or("base");
        let arm = Arm::parse(arm).ok_or(format!("unknown arm {arm:?}"))?;
        Ok((workload, seed, arm))
    }

    /// The trace counts the parent passed to a child, one per
    /// simulation it is to run.
    pub fn drawn(&self) -> Result<Vec<Drawn>, String> {
        let list = |flag: &str| -> Result<Vec<u64>, String> {
            let v = self.value(flag).ok_or(format!("{flag} is required"))?;
            v.split(',')
                .map(|n| n.parse().map_err(|_| format!("{flag}: cannot parse {n:?}")))
                .collect()
        };
        let (total, measured) = (list("--total")?, list("--measured")?);
        if total.len() != measured.len() {
            return Err("--total and --measured differ in length".into());
        }
        Ok(total
            .into_iter()
            .zip(measured)
            .map(|(total, measured)| Drawn { total, measured })
            .collect())
    }
}
