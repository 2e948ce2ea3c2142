//! The trace handle, the [`Sink`] trait, and the built-in sinks.
//!
//! A [`Trace`] is the cheap, cloneable handle components hold. It is either
//! disabled (the default — emitting an event or opening a span costs
//! exactly one branch and performs no atomic operation) or carries an
//! `Arc<dyn Sink>` plus a shared [`Clock`] that stamps every event with a
//! global sequence number.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{Event, TraceEvent};
use crate::metrics::{Gauge, Registry};

/// A shared logical clock handing out globally unique, monotonically
/// increasing sequence numbers.
///
/// Cloning shares the underlying counter. The linearizability recorder can
/// share a trace's clock so operation invocation/response timestamps and
/// trace event sequence numbers live on one axis — that is what makes the
/// annotated timelines line up.
#[derive(Clone, Debug, Default)]
pub struct Clock(Arc<AtomicU64>);

impl Clock {
    /// Creates a clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next timestamp (post-incrementing the counter).
    pub fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the current counter value without advancing it.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Destination for trace events.
///
/// Implementations must tolerate concurrent emission from many threads.
/// `emit` sits on algorithm hot paths, so implementations should be cheap
/// and must never block on anything slower than a short critical section.
pub trait Sink: Send + Sync {
    /// Accepts one stamped event.
    fn emit(&self, event: TraceEvent);
}

/// The cloneable tracing handle held by instrumented components.
///
/// The default (`Trace::default()` / [`Trace::disabled`]) carries no sink:
/// [`Trace::emit`] then costs a single branch on an `Option` and touches no
/// shared state, which is what keeps uninstrumented hot paths within the
/// no-regression budget.
#[derive(Clone, Default)]
pub struct Trace {
    sink: Option<Arc<dyn Sink>>,
    clock: Clock,
}

impl Trace {
    /// A disabled trace; emitting into it is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A trace feeding `sink`, stamped by a fresh clock.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Trace { sink: Some(sink), clock: Clock::new() }
    }

    /// Replaces the clock, so several traces (or a trace and a
    /// linearizability recorder) share one timestamp axis.
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The clock stamping this trace's events.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The attached sink, if any (the span constructor needs to emit an
    /// event at a pre-assigned sequence number).
    pub(crate) fn sink(&self) -> Option<&Arc<dyn Sink>> {
        self.sink.as_ref()
    }

    /// Emits `event` on behalf of process `pid`.
    ///
    /// Disabled traces return immediately without ticking the clock.
    #[inline]
    pub fn emit(&self, pid: usize, event: Event) {
        if let Some(sink) = &self.sink {
            sink.emit(TraceEvent { seq: self.clock.tick(), pid, event });
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .field("clock", &self.clock.now())
            .finish()
    }
}

/// Per-process bounded ring buffers.
///
/// Each process writes to its own ring behind its own mutex, so emission
/// from distinct processes never contends; a full ring drops the oldest
/// event and counts the drop instead of blocking. Events from a pid at or
/// beyond the configured process count land in the last ring (kept rather
/// than lost, still ordered by `seq` on drain).
pub struct RingSink {
    rings: Vec<Mutex<VecDeque<TraceEvent>>>,
    capacity: usize,
    dropped: AtomicU64,
    dropped_gauge: Option<Gauge>,
}

impl RingSink {
    /// A sink with `n` per-process rings of `capacity` events each.
    ///
    /// # Panics
    /// Panics if `n` or `capacity` is zero.
    pub fn new(n: usize, capacity: usize) -> Self {
        assert!(n > 0, "RingSink needs at least one ring");
        assert!(capacity > 0, "RingSink rings need nonzero capacity");
        RingSink {
            rings: (0..n).map(|_| Mutex::new(VecDeque::with_capacity(capacity))).collect(),
            capacity,
            dropped: AtomicU64::new(0),
            dropped_gauge: None,
        }
    }

    /// Mirrors the eviction count into the `obs.ring.dropped` gauge on
    /// `registry`, so silent trace loss shows up in metric snapshots next
    /// to the component metrics instead of only on this sink.
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.dropped_gauge = Some(registry.gauge("obs.ring.dropped"));
        self
    }

    /// Events evicted because a ring was full.
    #[must_use = "a nonzero drop count means the trace is incomplete"]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drains every ring and returns all buffered events merged into one
    /// sequence ordered by `seq`.
    #[must_use = "draining discards the buffered events if the result is unused"]
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::new();
        for ring in &self.rings {
            let mut g = ring.lock().expect("RingSink ring poisoned");
            all.extend(g.drain(..));
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Copies, without draining, every buffered event with `seq <= through`,
    /// merged into one sequence ordered by `seq`.
    pub(crate) fn copy_through(&self, through: u64) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::new();
        for ring in &self.rings {
            let g = ring.lock().expect("RingSink ring poisoned");
            all.extend(g.iter().filter(|e| e.seq <= through));
        }
        all.sort_by_key(|e| e.seq);
        all
    }
}

impl Sink for RingSink {
    fn emit(&self, event: TraceEvent) {
        let idx = event.pid.min(self.rings.len() - 1);
        let mut ring = self.rings[idx].lock().expect("RingSink ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(gauge) = &self.dropped_gauge {
                gauge.add(1);
            }
        }
        ring.push_back(event);
    }
}

impl fmt::Debug for RingSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingSink")
            .field("rings", &self.rings.len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Counts events per kind without buffering them.
///
/// Useful as the "counting sink" in overhead experiments and in tests that
/// only care that a class of event fired.
#[derive(Debug, Default)]
pub struct CountingSink {
    counts: Mutex<Vec<(&'static str, u64)>>,
    total: AtomicU64,
}

impl CountingSink {
    /// A fresh sink with all counts at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total events emitted.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Events of the given [`Event::kind`] emitted so far.
    pub fn count(&self, kind: &str) -> u64 {
        let counts = self.counts.lock().expect("CountingSink poisoned");
        counts.iter().find(|(k, _)| *k == kind).map_or(0, |(_, c)| *c)
    }

    /// All `(kind, count)` pairs, sorted by kind.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.counts.lock().expect("CountingSink poisoned").clone();
        out.sort_by_key(|(k, _)| *k);
        out
    }
}

impl Sink for CountingSink {
    fn emit(&self, event: TraceEvent) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let kind = event.event.kind();
        let mut counts = self.counts.lock().expect("CountingSink poisoned");
        match counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, c)) => *c += 1,
            None => counts.push((kind, 1)),
        }
    }
}

/// Broadcasts each event to several sinks in order.
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl FanoutSink {
    /// A fanout over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl Sink for FanoutSink {
    fn emit(&self, event: TraceEvent) {
        for sink in &self.sinks {
            sink.emit(event);
        }
    }
}

impl fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanoutSink").field("sinks", &self.sinks.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanId, SpanKind};

    #[test]
    fn disabled_spans_leave_the_shared_clock_alone() {
        let trace = Trace::disabled();
        let refs = Arc::strong_count(&trace.clock.0);
        let span = trace.span(0, SpanKind::Scan, SpanId::NONE);
        let child = span.child(SpanKind::Collect);
        assert_eq!(Arc::strong_count(&trace.clock.0), refs, "an inert span holds no trace");
        drop(child);
        drop(span);
        assert_eq!(Arc::strong_count(&trace.clock.0), refs);
    }
}
