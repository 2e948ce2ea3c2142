//! Request-scoped causal spans.
//!
//! The flat event stream of this crate records *that* things happened; a
//! [`Span`] records *on whose behalf*. A span is opened against a
//! [`Trace`] with a parent [`SpanId`], emits [`Event::SpanBegin`] /
//! [`Event::SpanEnd`] (plus optional [`Event::SpanNote`] annotations)
//! into the ordinary sink pipeline, and is reconstructed offline by
//! [`SpanForest`](crate::SpanForest). Like [`Trace::emit`], opening a
//! span against a disabled trace costs one branch, ticks no clock,
//! allocates nothing and touches no shared state (the inert span keeps
//! no handle on the trace); every method on it is a no-op.
//!
//! Span ids are derived from the begin event's sequence number
//! (`seq + 1`), so they are globally unique on the shared [`Clock`]
//! axis without any extra shared counter, and `0` is free to mean
//! "no span" ([`SpanId::NONE`]).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use snapshot_obs::{RingSink, SpanKind, SpanStatus, Trace};
//!
//! let sink = Arc::new(RingSink::new(1, 64));
//! let trace = Trace::new(sink.clone());
//! let scan = trace.root_span(0, SpanKind::Scan);
//! let attempt = scan.child(SpanKind::Attempt);
//! attempt.note("attempt", 1);
//! attempt.end(SpanStatus::Ok);
//! scan.end(SpanStatus::Ok);
//!
//! let events = sink.drain();
//! assert_eq!(events.len(), 5); // 2 begins, 1 note, 2 ends
//! ```
//!
//! [`Clock`]: crate::Clock

use std::fmt;
use std::time::Instant;

use crate::event::{Event, SpanKind, SpanStatus, TraceEvent};
use crate::trace::Trace;

/// Identity of a causal span, valid across process boundaries.
///
/// `0` ([`SpanId::NONE`]) means "no span": the parent of a root span, or
/// the ambient span of an untraced request. Real ids are the span's
/// begin-event sequence number plus one, so they are unique per shared
/// clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The absent span (parent of roots; id of disabled spans).
    pub const NONE: SpanId = SpanId(0);

    /// Rebuilds an id from its wire representation (the `id`/`parent`
    /// fields of the span events).
    pub fn from_raw(raw: u64) -> Self {
        SpanId(raw)
    }

    /// The wire representation (0 for [`SpanId::NONE`]).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// An open causal span.
///
/// Created by [`Trace::span`] / [`Trace::root_span`] or [`Span::child`].
/// Dropping a span that was not explicitly [`Span::end`]ed closes it with
/// [`SpanStatus::Ok`], so early returns still produce balanced
/// begin/end pairs. The begin's logical position comes from the shared
/// clock; the end's `elapsed_us` is wall-clock, because stall attribution
/// needs real time while ordering needs the logical axis.
pub struct Span {
    /// The trace the span reports to and when it opened; `None` once the
    /// span has ended, and from the start on a disabled trace, so an inert
    /// span holds no reference to anything shared.
    open: Option<(Trace, Instant)>,
    id: SpanId,
    pid: usize,
    kind: SpanKind,
}

impl Span {
    /// This span's id, for parenting children — directly, or through the
    /// request context the next layer receives.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// What this span covers.
    pub fn kind(&self) -> SpanKind {
        self.kind
    }

    /// Whether this span is actually recording (false when it was opened
    /// against a disabled trace).
    pub fn is_recording(&self) -> bool {
        !self.id.is_none()
    }

    /// Opens a child span on the same trace and pid.
    pub fn child(&self, kind: SpanKind) -> Span {
        match &self.open {
            Some((trace, _)) => trace.span(self.pid, kind, self.id),
            None => Span::inert(self.pid, kind),
        }
    }

    fn inert(pid: usize, kind: SpanKind) -> Span {
        Span { open: None, id: SpanId::NONE, pid, kind }
    }

    /// Attaches a `key = value` annotation to this span.
    ///
    /// `key` must be a plain identifier (the exporters emit it unescaped,
    /// like every other static name in the taxonomy).
    pub fn note(&self, key: &'static str, value: u64) {
        if let Some((trace, _)) = &self.open {
            trace.emit(self.pid, Event::SpanNote { id: self.id.raw(), key, value });
        }
    }

    /// Closes the span with an explicit status.
    pub fn end(mut self, status: SpanStatus) {
        self.finish(status);
    }

    fn finish(&mut self, status: SpanStatus) {
        if let Some((trace, started)) = self.open.take() {
            let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            trace.emit(
                self.pid,
                Event::SpanEnd { id: self.id.raw(), kind: self.kind, status, elapsed_us },
            );
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish(SpanStatus::Ok);
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("id", &self.id)
            .field("pid", &self.pid)
            .field("kind", &self.kind)
            .field("recording", &self.is_recording())
            .finish()
    }
}

impl Trace {
    /// Opens a span of `kind` on behalf of process `pid`, parented under
    /// `parent` (use [`SpanId::NONE`] or [`Trace::root_span`] for roots).
    ///
    /// On a disabled trace this returns an inert span without ticking the
    /// clock, mirroring [`Trace::emit`].
    pub fn span(&self, pid: usize, kind: SpanKind, parent: SpanId) -> Span {
        let Some(sink) = self.sink() else { return Span::inert(pid, kind) };
        let seq = self.clock().tick();
        let id = SpanId(seq + 1);
        sink.emit(TraceEvent {
            seq,
            pid,
            event: Event::SpanBegin { id: id.raw(), parent: parent.raw(), kind },
        });
        Span { open: Some((self.clone(), Instant::now())), id, pid, kind }
    }

    /// Opens a root span (no parent) of `kind` on behalf of `pid`.
    pub fn root_span(&self, pid: usize, kind: SpanKind) -> Span {
        self.span(pid, kind, SpanId::NONE)
    }
}
