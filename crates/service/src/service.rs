//! The sharded snapshot front-end.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snapshot_core::{CoreError, Deadline, RequestCtx, ScanStats, SnapshotView, TrySnapshotCore};
use snapshot_obs::{
    Counter, Event, Gauge, Histogram, LatencySummary, Registry, SpanKind, SpanStatus, Trace,
};
use snapshot_registers::{CachePadded, ProcessId, RegisterValue};

use crate::health::{Breaker, Gate, HealthConfig};
use crate::load::{LoadReport, Priority, ShardLoad};
use crate::retry::RetryConfig;
use crate::shard::ShardMap;
use crate::ServiceError;

/// Tuning knobs for a [`SnapshotService`].
///
/// Values are normalized at construction: `shards` is clamped into
/// `[1, segments]`, `max_inflight` to at least 1 (`retry.max_attempts`
/// is treated as at least 1 at use, and the health window is clamped
/// into `[1, 64]` by the breaker).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of shards the segments are partitioned into (contiguous
    /// balanced ranges, each with its own circuit breaker and load row).
    pub shards: usize,
    /// Admission budget: requests in flight beyond this are rejected with
    /// [`ServiceError::Overloaded`].
    pub max_inflight: usize,
    /// Retry budget applied when the backing core returns a retryable
    /// [`CoreError`] (infallible in-process cores never do).
    pub retry: RetryConfig,
    /// Per-shard circuit-breaker tuning for health gating.
    pub health: HealthConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            max_inflight: 256,
            retry: RetryConfig::default(),
            health: HealthConfig::default(),
        }
    }
}

/// Per-request statistics reported by the `_with_stats` entry points.
#[must_use]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// True if a partial scan fell back to projecting a full scan.
    pub fallback_full: bool,
    /// True if a partial scan was served by the backing's **native**
    /// subset scan (`try_scan_subset` — O(touched segments)) rather than
    /// a projected full scan.
    pub native_subset: bool,
    /// Attempts the retry budget consumed *before* the one that
    /// succeeded (0 when the first attempt went through — always 0 for
    /// infallible in-process cores).
    pub retries: u32,
    /// Register-level statistics of the collect that served the request.
    pub underlying: ScanStats,
}

/// An instantaneous picture of a subset of segments, as returned by
/// [`ServiceClient::scan_subset`].
///
/// Segment indices are held in strictly increasing order (the service
/// canonicalizes the request), and `values()[k]` is the observed value of
/// `segments()[k]`.
#[derive(Clone, Debug)]
pub struct PartialView<V> {
    segments: Arc<[usize]>,
    values: Arc<[V]>,
}

impl<V> PartialView<V> {
    fn new(segments: &[usize], values: Arc<[V]>) -> Self {
        debug_assert_eq!(segments.len(), values.len());
        PartialView { segments: segments.into(), values }
    }

    /// The covered segment indices, strictly increasing.
    pub fn segments(&self) -> &[usize] {
        &self.segments
    }

    /// The observed values, aligned with [`segments`](Self::segments).
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Number of covered segments.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the view covers no segments (never produced by the
    /// service, which rejects empty subsets).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The observed value of `segment`, if it is covered.
    pub fn get(&self, segment: usize) -> Option<&V> {
        let k = self.segments.binary_search(&segment).ok()?;
        Some(&self.values[k])
    }

    /// Iterates `(segment, value)` pairs in segment order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> + '_ {
        self.segments.iter().copied().zip(self.values.iter())
    }
}

/// Pre-resolved metric handles (free-standing until a registry is
/// attached, so the hot path never consults a registry).
#[derive(Clone, Debug, Default)]
struct Metrics {
    /// Collects served (`service.scan.solo`): one per successful full or
    /// partial scan, each of which ran its own collect.
    solo: Counter,
    partial: Counter,
    partial_native: Counter,
    fallback_full: Counter,
    /// Permille of served partial scans that did *not* fall back to a
    /// projected full scan (the name predates the native path; a metric
    /// name is a format); 1000 while no partial has been served.
    partial_certified_ratio: Gauge,
    overloaded: Counter,
    backend_errors: Counter,
    retries: Counter,
    retry_exhausted: Counter,
    degraded: Counter,
    breaker_trips: Counter,
    deadline_exceeded: Counter,
    load_shed: Counter,
    inflight: Gauge,
    load_skew: Gauge,
    load_hot: Gauge,
    /// Per-shard `service.load.shard{i}.*` gauges, refreshed when a
    /// [`LoadReport`] is taken (empty until a registry is attached —
    /// the registry is not retained, so handles resolve eagerly).
    shard_hits: Vec<Gauge>,
    shard_errors: Vec<Gauge>,
    shard_shed: Vec<Gauge>,
    shard_latency: Vec<Gauge>,
    scan_latency: Histogram,
    partial_latency: Histogram,
    update_latency: Histogram,
}

impl Metrics {
    fn from_registry(registry: &Registry, shards: usize) -> Self {
        let per_shard = |field: &str| -> Vec<Gauge> {
            (0..shards).map(|i| registry.gauge(&format!("service.load.shard{i}.{field}"))).collect()
        };
        Metrics {
            solo: registry.counter("service.scan.solo"),
            partial: registry.counter("service.scan.partial"),
            partial_native: registry.counter("service.partial.native"),
            fallback_full: registry.counter("service.partial.fallback_full"),
            partial_certified_ratio: registry.gauge("service.partial.certified_ratio"),
            overloaded: registry.counter("service.overloaded"),
            backend_errors: registry.counter("service.fault.backend_errors"),
            retries: registry.counter("service.fault.retries"),
            retry_exhausted: registry.counter("service.fault.retry_exhausted"),
            degraded: registry.counter("service.fault.degraded_shed"),
            breaker_trips: registry.counter("service.fault.breaker_trips"),
            deadline_exceeded: registry.counter("service.fault.deadline_exceeded"),
            load_shed: registry.counter("service.load.shed"),
            inflight: registry.gauge("service.inflight"),
            load_skew: registry.gauge("service.load.skew_permille"),
            load_hot: registry.gauge("service.load.hot_shard"),
            shard_hits: per_shard("hits"),
            shard_errors: per_shard("errors"),
            shard_shed: per_shard("shed"),
            shard_latency: per_shard("mean_latency_us"),
            scan_latency: registry.histogram("service.scan.latency_us"),
            partial_latency: registry.histogram("service.partial.latency_us"),
            update_latency: registry.histogram("service.update.latency_us"),
        }
    }
}

/// Which shards an operation touches (for health gating and accounting).
#[derive(Clone, Copy)]
enum Shards<'a> {
    /// Every shard (full scans read all segments).
    All,
    /// One shard (updates, probes).
    One(usize),
    /// An explicit sorted set (the shards a partial scan's subset touches).
    Set(&'a [usize]),
}

impl<'a> Shards<'a> {
    /// The shard indices, in increasing order, given `count` shards.
    fn iter(self, count: usize) -> impl Iterator<Item = usize> + 'a {
        let (range, set): (_, &[usize]) = match self {
            Shards::All => (0..count, &[]),
            Shards::One(s) => (s..s + 1, &[]),
            Shards::Set(set) => (0..0, set),
        };
        range.chain(set.iter().copied())
    }
}

/// One client request as the service threads it down to the core: the
/// lane it runs on, its [`RequestCtx`] (the deadline, and the span the
/// current layer parents its work under), the budget the deadline was
/// derived from (reported by [`ServiceError::DeadlineExceeded`]), and the
/// instant it started — the one clock read that both derives the
/// deadline and times the request.
#[derive(Clone, Copy)]
struct Request {
    lane: ProcessId,
    ctx: RequestCtx,
    budget: Duration,
    start: Instant,
}

/// Per-op-class latency quantiles, distilled from the service's log₂-µs
/// histograms by [`SnapshotService::latency_summaries`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceLatency {
    /// Full-scan latency quantiles.
    pub scan: LatencySummary,
    /// Partial-scan latency quantiles.
    pub partial: LatencySummary,
    /// Update latency quantiles.
    pub update: LatencySummary,
}

/// Maps a service outcome onto the span status taxonomy, for closing a
/// request's root span.
fn status_of<T>(out: &Result<T, ServiceError>) -> SpanStatus {
    match out {
        Ok(_) => SpanStatus::Ok,
        Err(ServiceError::DeadlineExceeded { .. }) => SpanStatus::Expired,
        Err(ServiceError::Overloaded { .. } | ServiceError::Degraded { .. }) => SpanStatus::Shed,
        Err(_) => SpanStatus::Error,
    }
}

/// Half-open probes claimed at the gate. Dropping releases any claims so
/// a request that never reports a backend outcome (a later shard's gate
/// shed it) cannot wedge a shard in its probing state. Releasing after
/// the outcome was recorded is harmless — the breaker's
/// `on_success`/`on_failure` already cleared the claim.
struct GateClaims<'a> {
    health: &'a [CachePadded<Breaker>],
    claimed: Vec<usize>,
}

impl Drop for GateClaims<'_> {
    fn drop(&mut self) {
        for &s in &self.claimed {
            self.health[s].release_probe();
        }
    }
}

/// A concurrent front-end over one snapshot object.
///
/// The service multiplexes many clients onto any [`TrySnapshotCore`]
/// backing — the four in-process constructions of `snapshot-core` (whose
/// operations never err) and fallible message-passing cores
/// (`snapshot-abd`'s `AbdSnapshotCore`) alike — adding three things the
/// raw object does not have, none of which makes one request wait for
/// another's collect (every scan runs its own and returns the core's own
/// view):
///
/// * **partial scans** — [`ServiceClient::scan_subset`] returns an
///   atomic picture of just the requested segments: served by the
///   backing's **native** O(touched-segments) subset scan when it offers
///   one (`try_scan_subset` — all four in-process constructions and the
///   ABD core do), with a projected full scan as the always-correct,
///   wait-free second rung (each fallback is traced as
///   [`Event::PartialFallback`] and sags the
///   `service.partial.certified_ratio` gauge);
/// * **admission control** — a wait-free bounded in-flight budget with
///   typed [`ServiceError::Overloaded`] rejections instead of unbounded
///   queueing;
/// * **fault tolerance and load management** — typed backend errors are
///   retried under a per-operation budget ([`RetryConfig`]) and shed
///   early by per-shard error-rate windowed circuit breakers
///   ([`HealthConfig`]) once a shard's backend degrades
///   ([`ServiceError::Degraded`]). Shedding and half-open recovery are
///   [`Priority`]-aware (probes first, bulk updates last), every request
///   carries a wall-clock deadline budget (it completes or returns
///   [`ServiceError::DeadlineExceeded`] — never waits past it), and
///   [`load_report`](Self::load_report) diagnoses hot-shard skew.
///
/// Everything is observable through [`Registry`] metrics
/// (`service.scan.*`, `service.fault.*`, `service.inflight`, log₂-µs
/// latency histograms) and [`Trace`] events for every admission and
/// failure decision.
///
/// Clients are claimed per lane with [`client`](Self::client); the
/// service itself is `Sync` and meant to be shared by reference across
/// threads.
pub struct SnapshotService<V: RegisterValue, C: TrySnapshotCore<V>> {
    core: C,
    cfg: ServiceConfig,
    map: ShardMap,
    /// Per-shard circuit breakers.
    health: Box<[CachePadded<Breaker>]>,
    /// Per-shard load accumulators feeding [`LoadReport`].
    load: Box<[CachePadded<ShardLoad>]>,
    /// The origin of the breakers' microsecond clock (cooldowns and
    /// half-open ramps).
    epoch: Instant,
    inflight: CachePadded<AtomicUsize>,
    /// Partial scans served (`Ok`) and, of those, how many fell back to
    /// a projected full scan — the pair behind the
    /// `service.partial.certified_ratio` permille gauge.
    partial_served: CachePadded<AtomicU64>,
    partial_fallbacks: CachePadded<AtomicU64>,
    lanes: Box<[AtomicBool]>,
    metrics: Metrics,
    trace: Trace,
    /// The service holds no values of its own: `V` only names the core's
    /// value type.
    values: PhantomData<fn() -> V>,
}

impl<V: RegisterValue, C: TrySnapshotCore<V>> SnapshotService<V, C> {
    /// Fronts `core` with the default configuration.
    pub fn new(core: C) -> Self {
        Self::with_config(core, ServiceConfig::default())
    }

    /// Fronts `core` with an explicit configuration (normalized; see
    /// [`ServiceConfig`]).
    pub fn with_config(core: C, config: ServiceConfig) -> Self {
        let segments = core.segments();
        assert!(segments > 0, "a snapshot service needs at least one segment");
        let map = ShardMap::new(segments, config.shards);
        let cfg = ServiceConfig {
            shards: map.shards(),
            max_inflight: config.max_inflight.max(1),
            retry: config.retry,
            health: config.health,
        };
        let lanes = (0..core.lanes()).map(|_| AtomicBool::new(false)).collect();
        SnapshotService {
            cfg,
            map,
            health: (0..map.shards()).map(|s| CachePadded::new(Breaker::new(s as u64))).collect(),
            load: (0..map.shards()).map(|_| CachePadded::new(ShardLoad::default())).collect(),
            epoch: Instant::now(),
            inflight: CachePadded::new(AtomicUsize::new(0)),
            partial_served: CachePadded::new(AtomicU64::new(0)),
            partial_fallbacks: CachePadded::new(AtomicU64::new(0)),
            lanes,
            metrics: Metrics::default(),
            trace: Trace::disabled(),
            values: PhantomData,
            core,
        }
    }

    /// Resolves this service's metrics from `registry` (names under
    /// `service.*`).
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.metrics = Metrics::from_registry(registry, self.map.shards());
        self
    }

    /// Routes admission/failure decisions and request spans into `trace`.
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// The normalized configuration in effect.
    pub fn config(&self) -> ServiceConfig {
        self.cfg
    }

    /// Number of memory segments the backing object has.
    pub fn segments(&self) -> usize {
        self.core.segments()
    }

    /// Number of client lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The backing snapshot object.
    pub fn backing(&self) -> &C {
        &self.core
    }

    /// Requests currently in flight (admitted and not yet finished).
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// Distills the per-op-class latency histograms into p50/p95/p99
    /// summaries (log₂-µs bucket upper bounds; all zero until a registry
    /// is attached via [`with_registry`](Self::with_registry), since the
    /// free-standing histograms record but a summary of an unobserved
    /// class is empty anyway).
    pub fn latency_summaries(&self) -> ServiceLatency {
        ServiceLatency {
            scan: self.metrics.scan_latency.snapshot().summary(),
            partial: self.metrics.partial_latency.snapshot().summary(),
            update: self.metrics.update_latency.snapshot().summary(),
        }
    }

    /// Permille of served partial scans that did **not** fall back to a
    /// projected full scan — they were served natively or covered every
    /// segment. Reads 1000 until the first partial is served, so a quiet
    /// service reports healthy.
    ///
    /// The same number is exported as the
    /// `service.partial.certified_ratio` gauge and carried in
    /// [`LoadReport::partial_certified_permille`].
    pub fn partial_certified_permille(&self) -> u64 {
        let served = self.partial_served.load(Ordering::Relaxed);
        if served == 0 {
            return 1000;
        }
        let fallbacks = self.partial_fallbacks.load(Ordering::Relaxed).min(served);
        (served - fallbacks) * 1000 / served
    }

    /// Shards whose health gate is currently open (shedding requests).
    pub fn degraded_shards(&self) -> Vec<usize> {
        let now = self.us_at(Instant::now());
        (0..self.health.len()).filter(|&s| self.health[s].is_open(now)).collect()
    }

    /// Takes an instantaneous [`LoadReport`] across shards: per-shard
    /// hit/error/shed/latency rows plus a skew diagnosis flagging the hot
    /// shard once traffic is meaningfully imbalanced.
    ///
    /// The same numbers are exported to the `service.load.*` gauges (when
    /// a registry is attached) and a [`Event::LoadReport`] trace event is
    /// emitted, so dashboards and post-mortems see what the caller saw.
    pub fn load_report(&self) -> LoadReport {
        let now = self.us_at(Instant::now());
        let stats = (0..self.load.len())
            .map(|s| self.load[s].stat(s, self.health[s].is_open(now)))
            .collect();
        let mut report = LoadReport::compute(stats);
        report.partial_certified_permille = self.partial_certified_permille();
        self.metrics
            .partial_certified_ratio
            .set(report.partial_certified_permille.min(i64::MAX as u64) as i64);
        self.metrics.load_skew.set(report.skew_permille.min(i64::MAX as u64) as i64);
        self.metrics.load_hot.set(report.hot_shard.map_or(-1, |s| s as i64));
        for row in &report.shards {
            let clamp = |v: u64| v.min(i64::MAX as u64) as i64;
            if let Some(g) = self.metrics.shard_hits.get(row.shard) {
                g.set(clamp(row.hits));
            }
            if let Some(g) = self.metrics.shard_errors.get(row.shard) {
                g.set(clamp(row.errors));
            }
            if let Some(g) = self.metrics.shard_shed.get(row.shard) {
                g.set(clamp(row.shed));
            }
            if let Some(g) = self.metrics.shard_latency.get(row.shard) {
                g.set(clamp(row.mean_latency_us));
            }
        }
        let open_shards = report.shards.iter().filter(|s| s.open).count() as u32;
        self.trace.emit(
            0,
            Event::LoadReport {
                hot_shard: report.hot_shard.unwrap_or(usize::MAX),
                skewed: report.is_skewed(),
                skew_permille: report.skew_permille,
                open_shards,
            },
        );
        report
    }

    /// Claims the client for `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or already claimed (one client
    /// per lane, mirroring the per-process handle discipline of the
    /// constructions).
    pub fn client(&self, lane: usize) -> ServiceClient<'_, V, C> {
        assert!(lane < self.lanes.len(), "lane {lane} out of range ({} lanes)", self.lanes.len());
        let was = self.lanes[lane].swap(true, Ordering::AcqRel);
        assert!(!was, "client for lane {lane} already claimed");
        ServiceClient { service: self, lane: ProcessId::new(lane) }
    }

    /// `at` on the breakers' clock: microseconds since the service's
    /// epoch.
    fn us_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Wait-free admission check: takes an in-flight slot for `lane`'s
    /// request or rejects it.
    fn admit(&self, lane: ProcessId) -> Result<Admitted<'_, V, C>, ServiceError> {
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.cfg.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.metrics.overloaded.inc();
            self.trace.emit(lane.get(), Event::ServiceOverload { inflight: prev });
            return Err(ServiceError::Overloaded { inflight: prev, budget: self.cfg.max_inflight });
        }
        self.metrics.inflight.add(1);
        Ok(Admitted { service: self })
    }

    /// Consults the health gates of every shard the operation touches at
    /// `at` (the request's start): sheds with [`ServiceError::Degraded`]
    /// if any breaker is open (releasing probes claimed on earlier
    /// shards), claims half-open probes otherwise.
    fn gate(
        &self,
        lane: ProcessId,
        shards: Shards<'_>,
        priority: Priority,
        at: Instant,
    ) -> Result<GateClaims<'_>, ServiceError> {
        let now = self.us_at(at);
        let mut claims = GateClaims { health: &self.health, claimed: Vec::new() };
        for s in shards.iter(self.health.len()) {
            match self.health[s].check(now, priority, &self.cfg.health) {
                Gate::Admit => {}
                Gate::Probe => claims.claimed.push(s),
                Gate::Shed { retry_after } => {
                    let retry_after = self.shed_hint(s, retry_after);
                    self.load[s].record_shed();
                    self.metrics.degraded.inc();
                    self.metrics.load_shed.inc();
                    self.trace.emit(
                        lane.get(),
                        Event::ShardShed {
                            shard: s,
                            rank: priority.rank(),
                            retry_after_us: retry_after.as_micros().min(u128::from(u64::MAX))
                                as u64,
                        },
                    );
                    return Err(ServiceError::Degraded { shard: s, retry_after });
                }
            }
        }
        Ok(claims)
    }

    /// Stretches a shed hint when `shard` is the hot shard of a skewed
    /// load distribution, so the shed cohort's retries spread out instead
    /// of re-converging on the hotspot the moment it half-opens.
    fn shed_hint(&self, shard: usize, base: Duration) -> Duration {
        let stats = (0..self.load.len()).map(|s| self.load[s].stat(s, false)).collect();
        LoadReport::compute(stats).retry_after_hint(shard, base)
    }

    /// Feeds a success completed at `done` to the breakers and load rows.
    fn record_ok(&self, shards: Shards<'_>, latency: Duration, done: Instant) {
        let cfg = &self.cfg.health;
        let now = self.us_at(done);
        for s in shards.iter(self.health.len()) {
            if self.health[s].on_success(now, cfg) {
                self.note_breaker_trip(s);
            }
            self.load[s].record_hit(latency);
        }
    }

    fn record_err(&self, shards: Shards<'_>, retryable: bool) {
        let now = self.us_at(Instant::now());
        let cfg = &self.cfg.health;
        for s in shards.iter(self.health.len()) {
            if self.health[s].on_failure(retryable, now, cfg) {
                self.note_breaker_trip(s);
            }
            self.load[s].record_error();
        }
    }

    /// A shard's breaker just tripped open: bump the counter and emit the
    /// trace event (which also wakes any attached flight recorder).
    fn note_breaker_trip(&self, shard: usize) {
        self.metrics.breaker_trips.inc();
        self.trace
            .emit(0, Event::BreakerTrip { shard, trips: self.health[shard].trips() });
    }

    /// Runs one core operation and accounts an error as this request's
    /// own backend error: it feeds the breakers and load rows of
    /// `shards`, and is counted and traced. A success is accounted once
    /// per request, by [`admitted`](Self::admitted).
    fn recorded<T>(
        &self,
        lane: ProcessId,
        attempt: u32,
        shards: Shards<'_>,
        op: impl FnOnce() -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        op().inspect_err(|error| {
            self.record_err(shards, error.retryable());
            self.metrics.backend_errors.inc();
            self.trace
                .emit(lane.get(), Event::BackendError { attempt, retryable: error.retryable() });
        })
    }

    /// Accounting shared by every deadline expiry: typed error, metric,
    /// trace event.
    fn deadline_exceeded(&self, req: Request, attempts: u32) -> ServiceError {
        let budget = req.budget;
        self.metrics.deadline_exceeded.inc();
        self.trace.emit(
            req.lane.get(),
            Event::DeadlineExceeded {
                attempts,
                budget_us: budget.as_micros().min(u128::from(u64::MAX)) as u64,
            },
        );
        ServiceError::DeadlineExceeded { attempts, budget }
    }

    /// What every request does once validated: fail fast if the budget is
    /// already spent, take an in-flight slot, pass the health gates of
    /// `shards`, then `run`. The request's latency — from
    /// [`Request::start`] to the outcome — goes into `latency` when the op
    /// class has a histogram, and a success feeds the breakers and load
    /// rows of `shards` (errors were accounted per attempt by
    /// [`recorded`](Self::recorded)).
    ///
    /// Besides the request's start, a successful request reads the clock
    /// once, here at completion: the gate runs at the start instant, and
    /// the latency and the breakers' outcome share the completion
    /// instant.
    fn admitted<T>(
        &self,
        req: Request,
        shards: Shards<'_>,
        priority: Priority,
        latency: Option<&Histogram>,
        run: impl FnOnce() -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        if req.ctx.deadline.expired_at(req.start) {
            return Err(self.deadline_exceeded(req, 0));
        }
        let _slot = self.admit(req.lane)?;
        let _claims = self.gate(req.lane, shards, priority, req.start)?;
        let out = run();
        let done = Instant::now();
        let elapsed = done.saturating_duration_since(req.start);
        if let Some(latency) = latency {
            latency.record(elapsed);
        }
        if out.is_ok() {
            self.record_ok(shards, elapsed, done);
        }
        out
    }

    /// Drives `attempt_fn` under the configured retry budget *and* the
    /// request's deadline: retryable [`CoreError`]s are retried with
    /// capped deterministic backoff until the attempt budget runs out
    /// (→ [`ServiceError::Backend`]); terminal errors surface
    /// immediately. The deadline — checked at admission before attempt 1
    /// — cuts the loop after a failed attempt when it has expired (the
    /// attempt span ends [`SpanStatus::Expired`]) or when the backoff
    /// would sleep past it, and after each backoff sleep; each maps to
    /// [`ServiceError::DeadlineExceeded`]. No wait here outlives the
    /// request's deadline.
    ///
    /// Each attempt runs inside its own [`SpanKind::Attempt`] span
    /// (`attempt_fn` receives the request's context re-parented under it,
    /// so the attempt's collect span nests there), and each backoff sleep
    /// inside a [`SpanKind::Backoff`] span — both children of
    /// `req.ctx.span`, so a stalled request's flight recording names the
    /// phase that ate the budget.
    fn run_with_retry<T>(
        &self,
        req: Request,
        mut attempt_fn: impl FnMut(u32, RequestCtx) -> Result<T, CoreError>,
    ) -> Result<T, ServiceError> {
        let Request { lane, ctx, .. } = req;
        let retry = self.cfg.retry;
        let mut backoff = retry.initial_backoff;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let span = self.trace.span(lane.get(), SpanKind::Attempt, ctx.span);
            span.note("attempt", u64::from(attempts));
            let error = match attempt_fn(attempts, ctx.under(span.id())) {
                Ok(v) => {
                    span.end(SpanStatus::Ok);
                    return Ok(v);
                }
                Err(e) => e,
            };
            if !error.retryable() || attempts >= retry.max_attempts.max(1) {
                span.end(SpanStatus::Error);
                self.metrics.retry_exhausted.inc();
                self.trace.emit(lane.get(), Event::RetryExhausted { attempts });
                return Err(ServiceError::Backend { attempts, error });
            }
            match ctx.deadline.remaining() {
                Some(Duration::ZERO) => {
                    // The attempt ran the request out of time.
                    span.end(SpanStatus::Expired);
                    return Err(self.deadline_exceeded(req, attempts));
                }
                Some(left) if left <= backoff => {
                    // The backoff would sleep past the deadline: fail fast
                    // instead of napping into a guaranteed expiry.
                    span.end(SpanStatus::Error);
                    return Err(self.deadline_exceeded(req, attempts));
                }
                _ => span.end(SpanStatus::Error),
            }
            self.metrics.retries.inc();
            let pause = self.trace.span(lane.get(), SpanKind::Backoff, ctx.span);
            pause.note("backoff_us", backoff.as_micros().min(u128::from(u64::MAX)) as u64);
            std::thread::sleep(backoff);
            pause.end(SpanStatus::Ok);
            if ctx.deadline.expired() {
                return Err(self.deadline_exceeded(req, attempts));
            }
            backoff = retry.next_backoff(backoff);
        }
    }

    /// One attempt's collect, under its own [`SpanKind::Collect`] span
    /// (`ctx.span` is the attempt span). `collect` reports how it served
    /// in a [`ServiceStats`]; the retry count is filled in here. A served
    /// collect counts toward `service.scan.solo`.
    fn collect_attempt<T>(
        &self,
        lane: ProcessId,
        attempt: u32,
        ctx: RequestCtx,
        collect: impl FnOnce(RequestCtx) -> Result<(T, ServiceStats), CoreError>,
    ) -> Result<(T, ServiceStats), CoreError> {
        let span = self.trace.span(lane.get(), SpanKind::Collect, ctx.span);
        let out = collect(ctx.under(span.id()));
        span.end(if out.is_ok() { SpanStatus::Ok } else { SpanStatus::Error });
        let (value, stats) = out?;
        self.metrics.solo.inc();
        Ok((value, ServiceStats { retries: attempt - 1, ..stats }))
    }

    /// One full scan under the retry budget.
    fn full_scan(&self, req: Request) -> Result<(SnapshotView<V>, ServiceStats), ServiceError> {
        let lane = req.lane;
        self.run_with_retry(req, |attempt, ctx| {
            self.collect_attempt(lane, attempt, ctx, |ctx| {
                let (view, underlying) =
                    self.recorded(lane, attempt, Shards::All, || self.core.try_scan(lane, ctx))?;
                Ok((view, ServiceStats { underlying, ..ServiceStats::default() }))
            })
        })
    }

    /// A partial scan of the canonical `subset` under the retry budget:
    /// the two-rung ladder, run directly on the core over exactly the
    /// subset's segments. `covered` is the sorted set of shards the
    /// subset touches (for health accounting).
    ///
    /// The backing's **native** subset scan reads exactly the touched
    /// segments, so a subset costs O(touched) end to end; when the
    /// backing has none, or its bounded interference budget ran out
    /// (`Ok(None)`), a full scan is projected onto the subset —
    /// wait-free, being the constructions' own bounded algorithm.
    fn partial_scan(
        &self,
        req: Request,
        subset: &[usize],
        covered: &[usize],
    ) -> Result<(PartialView<V>, ServiceStats), ServiceError> {
        let lane = req.lane;
        if subset.len() == self.core.segments() {
            // Full coverage: this *is* a full scan, serve it as one.
            let (view, stats) = self.full_scan(req)?;
            let values: Arc<[V]> = view.iter().cloned().collect();
            return Ok((PartialView::new(subset, values), stats));
        }
        let shards = Shards::Set(covered);
        self.run_with_retry(req, |attempt, ctx| {
            let (values, stats) = self.collect_attempt(lane, attempt, ctx, |ctx| {
                self.recorded(lane, attempt, shards, || {
                    match self.core.try_scan_subset(lane, subset, ctx)? {
                        Some((values, underlying)) => {
                            self.metrics.partial_native.inc();
                            let stats = ServiceStats {
                                native_subset: true,
                                underlying,
                                ..ServiceStats::default()
                            };
                            Ok((values.into(), stats))
                        }
                        None => {
                            self.trace.emit(
                                lane.get(),
                                Event::PartialFallback { segments: subset.len() },
                            );
                            let (view, underlying) = self.core.try_scan(lane, ctx)?;
                            let stats = ServiceStats {
                                fallback_full: true,
                                underlying,
                                ..ServiceStats::default()
                            };
                            Ok((subset.iter().map(|&s| view[s].clone()).collect(), stats))
                        }
                    }
                })
            })?;
            Ok((PartialView::new(subset, values), stats))
        })
    }

    /// Accounting for one admitted partial scan, served or not: the
    /// `service.scan.partial` counter, and for a served one the
    /// fallback pair behind the certified-ratio gauge plus the
    /// summarizing [`Event::PartialCollect`].
    fn note_partial(&self, lane: ProcessId, segments: usize, served: Option<&ServiceStats>) {
        self.metrics.partial.inc();
        let Some(stats) = served else { return };
        self.partial_served.fetch_add(1, Ordering::Relaxed);
        if stats.fallback_full {
            self.partial_fallbacks.fetch_add(1, Ordering::Relaxed);
            self.metrics.fallback_full.inc();
        }
        self.metrics
            .partial_certified_ratio
            .set(self.partial_certified_permille().min(i64::MAX as u64) as i64);
        let rounds = if stats.native_subset { stats.underlying.double_collects } else { 0 };
        self.trace.emit(
            lane.get(),
            Event::PartialCollect { segments, rounds, fallback: stats.fallback_full },
        );
    }

    fn check_segment(&self, segment: usize) -> Result<(), ServiceError> {
        let segments = self.core.segments();
        if segment >= segments {
            return Err(ServiceError::InvalidSegment { segment, segments });
        }
        Ok(())
    }

    /// Sorted, deduplicated, validated copy of a requested subset.
    fn canonical_subset(&self, segments: &[usize]) -> Result<Vec<usize>, ServiceError> {
        if segments.is_empty() {
            return Err(ServiceError::EmptySubset);
        }
        let mut subset = segments.to_vec();
        subset.sort_unstable();
        subset.dedup();
        self.check_segment(*subset.last().expect("non-empty"))?;
        Ok(subset)
    }

    /// The sorted set of shards a canonical (sorted) subset touches.
    fn covered_shards(&self, subset: &[usize]) -> Vec<usize> {
        let mut shards: Vec<usize> = subset.iter().map(|&s| self.map.shard_of(s)).collect();
        shards.dedup(); // sorted subset → monotone shard indices
        shards
    }
}

impl<V: RegisterValue, C: TrySnapshotCore<V>> std::fmt::Debug for SnapshotService<V, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotService")
            .field("segments", &self.core.segments())
            .field("lanes", &self.lanes.len())
            .field("config", &self.cfg)
            .finish()
    }
}

/// RAII in-flight slot.
struct Admitted<'a, V: RegisterValue, C: TrySnapshotCore<V>> {
    service: &'a SnapshotService<V, C>,
}

impl<V: RegisterValue, C: TrySnapshotCore<V>> Drop for Admitted<'_, V, C> {
    fn drop(&mut self) {
        self.service.inflight.fetch_sub(1, Ordering::AcqRel);
        self.service.metrics.inflight.add(-1);
    }
}

/// One lane's interface to a [`SnapshotService`].
///
/// Operations take `&mut self`: a lane runs at most one request at a
/// time, which is exactly the discipline the constructions' handle
/// registry enforces underneath.
pub struct ServiceClient<'a, V: RegisterValue, C: TrySnapshotCore<V>> {
    service: &'a SnapshotService<V, C>,
    lane: ProcessId,
}

impl<V: RegisterValue, C: TrySnapshotCore<V>> ServiceClient<'_, V, C> {
    /// The lane this client owns.
    pub fn lane(&self) -> usize {
        self.lane.get()
    }

    /// The service this client belongs to.
    pub fn service(&self) -> &SnapshotService<V, C> {
        self.service
    }

    /// The skeleton every verb shares: opens the request's root span of
    /// `kind`, derives its deadline from `budget` (`None` = the configured
    /// retry deadline, [`RetryConfig::deadline`]), runs `body`, and closes
    /// the span with the typed outcome. The root span opens before
    /// validation, admission and the deadline check, so rejects, sheds
    /// and instant expiries still appear in the request's tree.
    fn request<T>(
        &self,
        kind: SpanKind,
        budget: Option<Duration>,
        body: impl FnOnce(Request) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let svc = self.service;
        let budget = budget.unwrap_or(svc.cfg.retry.deadline);
        let root = svc.trace.root_span(self.lane.get(), kind);
        let start = Instant::now();
        let deadline = start.checked_add(budget).map_or(Deadline::none(), Deadline::at);
        let ctx = RequestCtx::by(deadline).under(root.id());
        let out = body(Request { lane: self.lane, ctx, budget, start });
        root.end(status_of(&out));
        out
    }

    /// A full scan: an instantaneous view of all segments.
    pub fn scan(&mut self) -> Result<SnapshotView<V>, ServiceError> {
        self.scan_with_stats(None).map(|(view, _)| view)
    }

    /// Like [`scan`](Self::scan), also reporting how the request was
    /// served, under an explicit wall-clock `budget` (`None` = the
    /// configured retry deadline): the request either completes within it
    /// or returns [`ServiceError::DeadlineExceeded`] — it never waits
    /// past it. The deadline is carried through admission, retry
    /// backoffs, and a fallible backend's quorum waits. The scan runs its
    /// own collect: no other request's progress, or lack of it, delays
    /// it.
    pub fn scan_with_stats(
        &mut self,
        budget: Option<Duration>,
    ) -> Result<(SnapshotView<V>, ServiceStats), ServiceError> {
        let svc = self.service;
        self.request(SpanKind::Scan, budget, |req| {
            let latency = Some(&svc.metrics.scan_latency);
            svc.admitted(req, Shards::All, Priority::Full, latency, || svc.full_scan(req))
        })
    }

    /// A partial scan: an instantaneous picture of `segments` only
    /// (deduplicated and sorted; the view reports the canonical order).
    pub fn scan_subset(&mut self, segments: &[usize]) -> Result<PartialView<V>, ServiceError> {
        self.scan_subset_with_stats(segments, None).map(|(view, _)| view)
    }

    /// Like [`scan_subset`](Self::scan_subset), also reporting how the
    /// request was served, under an explicit wall-clock `budget` (see
    /// [`scan_with_stats`](Self::scan_with_stats) for the deadline rules).
    pub fn scan_subset_with_stats(
        &mut self,
        segments: &[usize],
        budget: Option<Duration>,
    ) -> Result<(PartialView<V>, ServiceStats), ServiceError> {
        let svc = self.service;
        self.request(SpanKind::PartialScan, budget, |req| {
            let subset = svc.canonical_subset(segments)?;
            let covered = svc.covered_shards(&subset);
            let latency = Some(&svc.metrics.partial_latency);
            svc.admitted(req, Shards::Set(&covered), Priority::Partial, latency, || {
                let out = svc.partial_scan(req, &subset, &covered);
                svc.note_partial(req.lane, subset.len(), out.as_ref().ok().map(|(_, s)| s));
                out
            })
        })
    }

    /// Writes `value` to `segment`.
    ///
    /// For single-writer constructions `segment` must equal this client's
    /// lane ([`ServiceError::NotOwner`] otherwise); multi-writer backings
    /// accept any segment.
    ///
    /// A failed update ([`ServiceError::Backend`]) is **indeterminate**:
    /// the write may or may not have taken effect (retries re-apply the
    /// same value, which is idempotent at the snapshot level). This is
    /// the same boundary an ABD write that loses its quorum sits on.
    pub fn update(&mut self, segment: usize, value: V) -> Result<(), ServiceError> {
        self.update_with_stats(segment, value, None).map(|_| ())
    }

    /// Like [`update`](Self::update), also reporting the embedded scan's
    /// statistics, under an explicit wall-clock `budget` (see
    /// [`scan_with_stats`](Self::scan_with_stats) for the deadline rules).
    /// A [`ServiceError::DeadlineExceeded`] whose attempt count is
    /// nonzero is **indeterminate**, exactly like a failed
    /// [`Backend`](ServiceError::Backend) update.
    pub fn update_with_stats(
        &mut self,
        segment: usize,
        value: V,
        budget: Option<Duration>,
    ) -> Result<ScanStats, ServiceError> {
        let svc = self.service;
        self.request(SpanKind::Update, budget, |req| {
            svc.check_segment(segment)?;
            if svc.core.single_writer() && segment != req.lane.get() {
                return Err(ServiceError::NotOwner { lane: req.lane.get(), segment });
            }
            let shards = Shards::One(svc.map.shard_of(segment));
            let latency = Some(&svc.metrics.update_latency);
            svc.admitted(req, shards, Priority::Bulk, latency, || {
                svc.run_with_retry(req, |attempt, ctx| {
                    let update = || svc.core.try_update(req.lane, segment, value.clone(), ctx);
                    svc.recorded(req.lane, attempt, shards, update)
                })
            })
        })
    }

    /// A single-shard health probe: the cheapest read that produces
    /// backend evidence for `shard`'s breaker — a native subset scan of
    /// the shard's first segment, or a full scan where the backing has no
    /// native path. Probe-class traffic is the first class a half-open
    /// breaker re-admits, so probing a degraded shard drives its recovery
    /// instead of waiting for organic traffic to ramp it.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn probe_shard(&mut self, shard: usize) -> Result<(), ServiceError> {
        let svc = self.service;
        assert!(
            shard < svc.map.shards(),
            "shard {shard} out of range ({} shards)",
            svc.map.shards()
        );
        let segment = svc.map.range(shard).start;
        self.request(SpanKind::Probe, None, |req| {
            svc.admitted(req, Shards::One(shard), Priority::Probe, None, || {
                svc.run_with_retry(req, |attempt, ctx| {
                    let probe = || match svc.core.try_scan_subset(req.lane, &[segment], ctx)? {
                        Some(_) => Ok(()),
                        None => svc.core.try_scan(req.lane, ctx).map(|_| ()),
                    };
                    svc.recorded(req.lane, attempt, Shards::One(shard), probe)
                })
            })
        })
    }
}

impl<V: RegisterValue, C: TrySnapshotCore<V>> Drop for ServiceClient<'_, V, C> {
    fn drop(&mut self) {
        self.service.lanes[self.lane.get()].store(false, Ordering::Release);
    }
}

impl<V: RegisterValue, C: TrySnapshotCore<V>> std::fmt::Debug for ServiceClient<'_, V, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient").field("lane", &self.lane).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapshot_core::{BoundedSnapshot, LockSnapshot, MultiWriterSnapshot, UnboundedSnapshot};
    use snapshot_obs::RingSink;

    #[test]
    fn quiescent_scan_and_update_round_trip() {
        let svc = SnapshotService::new(UnboundedSnapshot::new(4, 0u64));
        let mut c1 = svc.client(1);
        c1.update(1, 11).unwrap();
        let view = c1.scan().unwrap();
        assert_eq!(view.to_vec(), vec![0, 11, 0, 0]);
    }

    #[test]
    fn partial_scan_projects_the_memory() {
        let svc = SnapshotService::new(UnboundedSnapshot::new(5, 0u64));
        let mut c0 = svc.client(0);
        let mut c3 = svc.client(3);
        c0.update(0, 7).unwrap();
        c3.update(3, 9).unwrap();
        let (view, stats) = c0.scan_subset_with_stats(&[3, 0], None).unwrap();
        assert_eq!(view.segments(), &[0, 3]);
        assert_eq!(view.values(), &[7, 9]);
        assert_eq!(view.get(3), Some(&9));
        assert_eq!(view.get(1), None);
        // The unbounded backing serves subsets natively, so no fallback.
        assert!(stats.native_subset);
        assert!(!stats.fallback_full);
        assert_eq!(svc.partial_certified_permille(), 1000);
    }

    #[test]
    fn duplicate_and_unsorted_subsets_are_canonicalized() {
        let svc = SnapshotService::new(UnboundedSnapshot::new(4, 0u32));
        let mut c = svc.client(0);
        let view = c.scan_subset(&[2, 0, 2, 0]).unwrap();
        assert_eq!(view.segments(), &[0, 2]);
        assert_eq!(view.len(), 2);
    }

    #[test]
    fn subset_errors_are_typed() {
        let svc = SnapshotService::new(UnboundedSnapshot::new(3, 0u32));
        let mut c = svc.client(0);
        assert_eq!(c.scan_subset(&[]).unwrap_err(), ServiceError::EmptySubset);
        assert_eq!(
            c.scan_subset(&[1, 3]).unwrap_err(),
            ServiceError::InvalidSegment { segment: 3, segments: 3 }
        );
        assert_eq!(
            c.update(1, 5).unwrap_err(),
            ServiceError::NotOwner { lane: 0, segment: 1 }
        );
        assert_eq!(
            c.update(9, 5).unwrap_err(),
            ServiceError::InvalidSegment { segment: 9, segments: 3 }
        );
    }

    #[test]
    fn multiwriter_backing_allows_any_segment() {
        let svc = SnapshotService::new(MultiWriterSnapshot::new(2, 6, 0u32));
        assert_eq!(svc.segments(), 6);
        assert_eq!(svc.lanes(), 2);
        let mut c = svc.client(1);
        c.update(4, 44).unwrap();
        assert_eq!(c.scan_subset(&[4]).unwrap().values(), &[44]);
    }

    #[test]
    fn bounded_and_locked_backings_serve_subsets_natively() {
        // The handshake construction answers subsets through its native
        // O(touched) scan, whether or not the subset crosses a shard.
        let svc = SnapshotService::with_config(
            BoundedSnapshot::new(4, 0u32),
            ServiceConfig { shards: 2, ..ServiceConfig::default() },
        );
        let mut c = svc.client(0);
        c.update(0, 5).unwrap();
        let (view, stats) = c.scan_subset_with_stats(&[0, 3], None).unwrap(); // spans both shards
        assert_eq!(view.values(), &[5, 0]);
        assert!(stats.native_subset);
        assert!(!stats.fallback_full);

        let (view, stats) = c.scan_subset_with_stats(&[0, 1], None).unwrap(); // single shard
        assert_eq!(view.values(), &[5, 0]);
        assert!(stats.native_subset);
        assert!(!stats.fallback_full);
        assert_eq!(svc.partial_certified_permille(), 1000);
    }

    #[test]
    fn locked_backing_works_end_to_end() {
        let svc = SnapshotService::new(LockSnapshot::new(3, 0u8));
        let mut c = svc.client(2);
        c.update(2, 9).unwrap();
        assert_eq!(c.scan().unwrap().to_vec(), vec![0, 0, 9]);
        assert_eq!(c.scan_subset(&[2]).unwrap().values(), &[9]);
    }

    #[test]
    fn full_coverage_subset_is_served_as_a_full_scan() {
        let svc = SnapshotService::new(UnboundedSnapshot::new(3, 0u32));
        let mut c = svc.client(0);
        c.update(0, 1).unwrap();
        let (view, stats) = c.scan_subset_with_stats(&[0, 1, 2], None).unwrap();
        assert_eq!(view.values(), &[1, 0, 0]);
        assert!(!stats.fallback_full);
        assert!(!stats.native_subset, "served by the full-scan path");
    }

    #[test]
    fn every_scan_runs_its_own_collect() {
        let registry = Registry::new();
        let svc = SnapshotService::new(UnboundedSnapshot::new(2, 0u32)).with_registry(&registry);
        let mut c = svc.client(0);
        for _ in 0..5 {
            let (_, stats) = c.scan_with_stats(None).unwrap();
            assert!(stats.underlying.double_collects >= 1, "the scan collected itself");
            assert_eq!(stats.retries, 0, "infallible cores never consume retries");
        }
        c.scan_subset(&[1]).unwrap();
        assert_eq!(registry.counter("service.scan.solo").get(), 6);
        assert_eq!(registry.counter("service.fault.backend_errors").get(), 0);
    }

    #[test]
    fn inflight_budget_rejects_with_typed_error() {
        let sink = Arc::new(RingSink::new(2, 16));
        let svc = SnapshotService::with_config(
            UnboundedSnapshot::new(2, 0u32),
            ServiceConfig { max_inflight: 1, ..ServiceConfig::default() },
        )
        .with_trace(Trace::new(sink.clone()));
        // Hold the only slot by faking an admitted request.
        let slot = svc.admit(ProcessId::new(0)).unwrap();
        let mut c = svc.client(1);
        assert_eq!(
            c.scan().unwrap_err(),
            ServiceError::Overloaded { inflight: 1, budget: 1 }
        );
        // The shed is attributed to the lane that was refused, not lane 0.
        let sheds: Vec<usize> = sink
            .drain()
            .iter()
            .filter(|e| matches!(e.event, Event::ServiceOverload { inflight: 1 }))
            .map(|e| e.pid)
            .collect();
        assert_eq!(sheds, vec![1]);
        drop(slot);
        assert!(c.scan().is_ok());
    }

    #[test]
    fn healthy_service_reports_no_degraded_shards() {
        let svc = SnapshotService::new(UnboundedSnapshot::new(4, 0u32));
        let mut c = svc.client(0);
        c.update(0, 1).unwrap();
        c.scan().unwrap();
        assert!(svc.degraded_shards().is_empty());
        assert_eq!(svc.inflight(), 0);
    }

    #[test]
    fn zero_budget_requests_fail_fast_with_deadline_exceeded() {
        let svc = SnapshotService::new(UnboundedSnapshot::new(4, 0u64));
        let mut c = svc.client(0);
        match c.scan_with_stats(Some(Duration::ZERO)).unwrap_err() {
            ServiceError::DeadlineExceeded { attempts, budget } => {
                assert_eq!(attempts, 0, "the request never reached the backend");
                assert_eq!(budget, Duration::ZERO);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(matches!(
            c.scan_subset_with_stats(&[1], Some(Duration::ZERO)),
            Err(ServiceError::DeadlineExceeded { .. })
        ));
        assert!(matches!(
            c.update_with_stats(0, 7, Some(Duration::ZERO)),
            Err(ServiceError::DeadlineExceeded { .. })
        ));
        // Sane budgets succeed against an in-process (wait-free) core.
        let sane = Some(Duration::from_secs(5));
        assert!(c.scan_with_stats(sane).is_ok());
        assert!(c.scan_subset_with_stats(&[1], sane).is_ok());
        assert!(c.update_with_stats(0, 7, sane).is_ok());
    }

    #[test]
    fn probe_and_load_report_round_trip() {
        let registry = Registry::new();
        let svc = SnapshotService::new(UnboundedSnapshot::new(4, 0u64)).with_registry(&registry);
        let mut c = svc.client(0);
        c.probe_shard(0).unwrap();
        c.update(0, 1).unwrap();
        c.scan().unwrap();
        let report = svc.load_report();
        assert!(!report.is_skewed(), "three quiet requests are not skew");
        assert!(report.shards.iter().all(|s| !s.open));
        assert!(report.shards[0].hits >= 3, "probe + update + scan all hit shard 0");
        assert!(registry.gauge("service.load.shard0.hits").get() >= 3);
        assert_eq!(registry.gauge("service.load.hot_shard").get(), -1);
    }

    #[test]
    fn lanes_are_exclusive_until_dropped() {
        let svc = SnapshotService::new(UnboundedSnapshot::new(2, 0u32));
        let c = svc.client(0);
        drop(c);
        let _c2 = svc.client(0);
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn double_client_panics() {
        let svc = SnapshotService::new(UnboundedSnapshot::new(2, 0u32));
        let _a = svc.client(0);
        let _b = svc.client(0);
    }

    #[test]
    fn concurrent_scans_each_collect_under_load() {
        // Liveness + counter smoke: with many scanning threads, every scan
        // returns a plausible view from a collect of its own.
        let registry = Registry::new();
        let svc = SnapshotService::new(UnboundedSnapshot::new(4, 0u64)).with_registry(&registry);
        std::thread::scope(|s| {
            for lane in 0..4 {
                let svc = &svc;
                s.spawn(move || {
                    let mut c = svc.client(lane);
                    for k in 1..=200u64 {
                        c.update(lane, k).unwrap();
                        let view = c.scan().unwrap();
                        assert_eq!(view.len(), 4);
                    }
                });
            }
        });
        assert_eq!(registry.counter("service.scan.solo").get(), 4 * 200);
        assert_eq!(svc.inflight(), 0);
    }
}
