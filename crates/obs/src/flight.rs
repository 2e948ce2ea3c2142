//! Anomaly-triggered flight recorder.
//!
//! A [`FlightRecorder`] is a [`Sink`] built from a [`RingSink`]: every
//! event (spans included) goes into that ring, and when an anomaly event
//! flows through — a [`DeadlineExceeded`](crate::Event::DeadlineExceeded),
//! a [`BreakerTrip`](crate::Event::BreakerTrip), or an
//! [`Overloaded` shed](crate::Event::ServiceOverload) — the recorder
//! freezes a copy of the ring as a [`FlightDump`]: the black-box
//! recording of what the stack was doing in the run-up to the anomaly.
//! Dumps render as JSON-lines with a `flight_dump` cause header, so the
//! same tooling that reads ordinary trace dumps reads these.
//!
//! The recorder is the trace's only sink when it is wanted: the full
//! rolling window stays readable through [`FlightRecorder::ring`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::event::{Event, TraceEvent};
use crate::export::json_lines;
use crate::trace::{RingSink, Sink};

/// Why a [`FlightDump`] was captured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DumpCause {
    /// A request's wall-clock budget expired
    /// ([`Event::DeadlineExceeded`]).
    DeadlineExceeded,
    /// A shard's circuit breaker tripped open ([`Event::BreakerTrip`]).
    BreakerTrip,
    /// Admission control shed a request ([`Event::ServiceOverload`]).
    Overloaded,
    /// [`FlightRecorder::trigger`] was called explicitly.
    Manual,
}

impl DumpCause {
    /// Stable lowercase name used in the dump header.
    pub fn name(self) -> &'static str {
        match self {
            DumpCause::DeadlineExceeded => "deadline_exceeded",
            DumpCause::BreakerTrip => "breaker_trip",
            DumpCause::Overloaded => "overloaded",
            DumpCause::Manual => "manual",
        }
    }
}

impl fmt::Display for DumpCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A frozen copy of the recorder's rings at the moment an anomaly fired.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// What froze the ring.
    pub cause: DumpCause,
    /// Sequence number of the triggering event (the last element of
    /// `events` for automatic dumps; the newest buffered event, if any,
    /// for manual ones).
    pub trigger_seq: u64,
    /// Pid that emitted the triggering event (for manual dumps, the pid of
    /// the newest buffered event, or 0 when the ring is empty).
    pub trigger_pid: usize,
    /// The buffered events of every pid up to and including the trigger,
    /// in `seq` order (the trigger last).
    pub events: Vec<TraceEvent>,
}

impl FlightDump {
    /// Renders the dump as JSON-lines: a `flight_dump` header line
    /// carrying the cause, then one line per buffered event.
    ///
    /// Every line (header included) has `seq`, `pid`, and `kind`, and
    /// lines are ordered by `seq` (the header borrows the first buffered
    /// event's seq), so the dump satisfies the same schema as an ordinary
    /// trace dump.
    pub fn render(&self) -> String {
        let header_seq = self.events.first().map_or(self.trigger_seq, |e| e.seq);
        let mut out = format!(
            "{{\"seq\":{},\"pid\":{},\"kind\":\"flight_dump\",\"cause\":\"{}\",\
             \"trigger_seq\":{},\"events\":{}}}\n",
            header_seq,
            self.trigger_pid,
            self.cause.name(),
            self.trigger_seq,
            self.events.len(),
        );
        out.push_str(&json_lines(&self.events));
        out
    }
}

/// The black-box recorder: a [`RingSink`] frozen on anomalies.
///
/// An event costs what it costs the ring: one lock on its pid's ring.
/// The dump list is locked only when an anomaly freezes the rings and
/// when dumps are read. At most `max_dumps` dumps are retained (later
/// anomalies inside an already captured storm are counted but not
/// re-captured), so a flapping breaker cannot grow memory without bound.
/// The ring keeps recording after a dump.
pub struct FlightRecorder {
    ring: RingSink,
    dumps: Mutex<Vec<FlightDump>>,
    max_dumps: usize,
    suppressed: AtomicU64,
}

impl FlightRecorder {
    /// A recorder freezing `ring`, retaining up to 8 dumps.
    pub fn new(ring: RingSink) -> Self {
        Self::with_max_dumps(ring, 8)
    }

    /// A recorder freezing `ring`, retaining up to `max_dumps` dumps.
    ///
    /// # Panics
    /// Panics if `max_dumps` is zero.
    pub fn with_max_dumps(ring: RingSink, max_dumps: usize) -> Self {
        assert!(max_dumps > 0, "FlightRecorder needs room for at least one dump");
        FlightRecorder {
            ring,
            dumps: Mutex::new(Vec::new()),
            max_dumps,
            suppressed: AtomicU64::new(0),
        }
    }

    /// The ring every event goes into; drain it for the full window.
    pub fn ring(&self) -> &RingSink {
        &self.ring
    }

    fn lock(&self) -> MutexGuard<'_, Vec<FlightDump>> {
        self.dumps.lock().expect("FlightRecorder poisoned")
    }

    /// Freezes the rings up to and including `trigger` as a dump, or
    /// returns false if the dump budget is exhausted. Without a trigger
    /// the whole ring is frozen and its newest event stands in for one.
    fn freeze(&self, cause: DumpCause, trigger: Option<&TraceEvent>) -> bool {
        let mut dumps = self.lock();
        if dumps.len() >= self.max_dumps {
            return false;
        }
        let events = self.ring.copy_through(trigger.map_or(u64::MAX, |e| e.seq));
        let (trigger_seq, trigger_pid) =
            trigger.or(events.last()).map_or((0, 0), |e| (e.seq, e.pid));
        dumps.push(FlightDump { cause, trigger_seq, trigger_pid, events });
        true
    }

    /// Freezes the current rings as a dump of the given cause. Returns
    /// false if the dump budget was already exhausted.
    pub fn trigger(&self, cause: DumpCause) -> bool {
        self.freeze(cause, None)
    }

    /// Dumps captured so far (clones; the recorder keeps its copies).
    #[must_use]
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.lock().clone()
    }

    /// Removes and returns the captured dumps, freeing the dump budget.
    #[must_use = "taking discards the dumps if the result is unused"]
    pub fn take_dumps(&self) -> Vec<FlightDump> {
        std::mem::take(&mut *self.lock())
    }

    /// Anomalies that fired while the dump budget was exhausted.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    fn cause_of(event: &Event) -> Option<DumpCause> {
        match event {
            Event::DeadlineExceeded { .. } => Some(DumpCause::DeadlineExceeded),
            Event::BreakerTrip { .. } => Some(DumpCause::BreakerTrip),
            Event::ServiceOverload { .. } => Some(DumpCause::Overloaded),
            _ => None,
        }
    }
}

impl Sink for FlightRecorder {
    fn emit(&self, event: TraceEvent) {
        self.ring.emit(event);
        if let Some(cause) = Self::cause_of(&event.event) {
            if !self.freeze(cause, Some(&event)) {
                self.suppressed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("ring", &self.ring)
            .field("dumps", &self.lock().len())
            .field("suppressed", &self.suppressed())
            .finish()
    }
}
