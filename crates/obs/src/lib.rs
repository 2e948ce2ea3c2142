//! Unified tracing and metrics for the atomic-snapshot reproduction
//! (Afek, Attiya, Dolev, Gafni, Merritt, Shavit — *Atomic Snapshots of
//! Shared Memory*, PODC 1990).
//!
//! The paper's complexity and correctness arguments are statements about
//! *executions*: how many double-collect rounds a scan used (Lemmas 3.4
//! and 4.4's `n+1` bound), which handshake bits flipped, when a scanner
//! gave up collecting and borrowed an embedded view (Observation 2), how
//! an emulated register's quorum phases behaved. This crate turns each of
//! those proof-relevant steps into a typed [`Event`] flowing through a
//! single [`Sink`] trait, plus a [`Registry`] of named metrics, so every
//! layer of the workspace reports through one model:
//!
//! * **Events** ([`Event`], [`TraceEvent`]) — small `Copy` payloads
//!   stamped with a global sequence number from a shared [`Clock`];
//! * **Trace handle** ([`Trace`]) — the cloneable object instrumented
//!   code holds; disabled by default so an untraced hot path pays one
//!   branch and touches no shared state;
//! * **Sinks** — [`RingSink`] (bounded per-process rings, merged on
//!   drain), [`CountingSink`] (per-kind counts), [`FanoutSink`];
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`], [`Registry`]) —
//!   pre-resolved atomic handles behind a named registry; histograms use
//!   the log₂-microsecond buckets the ABD layer has always reported;
//! * **Exporters** ([`json_lines`], [`chrome_tracing`]) — JSON-lines for
//!   machine consumption and a chrome://tracing document loadable in
//!   `about:tracing` or Perfetto;
//! * **Causal spans** ([`Span`], [`SpanId`], [`SpanForest`]) — the
//!   request-scoped tracing plane: parent-linked begin/end/annotate
//!   emitted through the same sinks, reconstructable into span trees
//!   that attribute a request's latency to named phases;
//! * **Flight recorder** ([`FlightRecorder`], [`FlightDump`]) — a
//!   bounded black-box ring frozen on anomalies (deadline exceeded,
//!   breaker trip, overload shed) and rendered as cause-headed
//!   JSON-lines.
//!
//! Sharing a trace's [`Clock`] with the linearizability recorder puts
//! operation intervals and trace events on one timestamp axis, which is
//! what lets a rejected Wing–Gong history be dumped as an annotated
//! timeline with the events that produced it.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use snapshot_obs::{Algo, Event, RingSink, Trace};
//!
//! let sink = Arc::new(RingSink::new(2, 64));
//! let trace = Trace::new(sink.clone());
//! trace.emit(0, Event::ScanBegin { algo: Algo::UnboundedSw });
//! trace.emit(1, Event::BorrowDecision { lender: 0, moved: 2 });
//! trace.emit(0, Event::ScanEnd { algo: Algo::UnboundedSw, double_collects: 1, borrowed: false });
//!
//! let events = sink.drain();
//! assert_eq!(events.len(), 3);
//! assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod export;
mod flight;
mod metrics;
mod span;
mod spantree;
mod trace;

pub use event::{
    AbdPhaseKind, Algo, Event, RegOp, RoundOutcome, SpanKind, SpanStatus, TraceEvent,
};
pub use export::{chrome_tracing, json_lines};
pub use flight::{DumpCause, FlightDump, FlightRecorder};
pub use metrics::{
    bucket_of, Counter, Gauge, Histogram, HistogramSnapshot, LatencySummary, MetricValue,
    Registry, HISTOGRAM_BUCKETS,
};
pub use span::{Span, SpanId};
pub use spantree::{SpanForest, SpanNode};
pub use trace::{Clock, CountingSink, FanoutSink, RingSink, Sink, Trace};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn disabled_trace_is_a_no_op_and_does_not_tick() {
        let trace = Trace::disabled();
        assert!(!trace.is_enabled());
        trace.emit(0, Event::RegisterRead);
        assert_eq!(trace.clock().now(), 0);
    }

    #[test]
    fn ring_sink_orders_by_seq_across_processes() {
        let sink = Arc::new(RingSink::new(3, 16));
        let trace = Trace::new(sink.clone());
        trace.emit(2, Event::RegisterRead);
        trace.emit(0, Event::RegisterWrite);
        trace.emit(1, Event::RegisterRead);
        let events = sink.drain();
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(events.iter().map(|e| e.pid).collect::<Vec<_>>(), vec![2, 0, 1]);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn ring_sink_drops_oldest_when_full() {
        let sink = Arc::new(RingSink::new(1, 2));
        let trace = Trace::new(sink.clone());
        for _ in 0..5 {
            trace.emit(0, Event::RegisterRead);
        }
        assert_eq!(sink.dropped(), 3);
        let events = sink.drain();
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn counting_sink_counts_by_kind() {
        let sink = Arc::new(CountingSink::new());
        let trace = Trace::new(sink.clone());
        trace.emit(0, Event::RegisterRead);
        trace.emit(0, Event::RegisterRead);
        trace.emit(1, Event::BorrowDecision { lender: 0, moved: 2 });
        assert_eq!(sink.total(), 3);
        assert_eq!(sink.count("register_read"), 2);
        assert_eq!(sink.count("borrow_decision"), 1);
        assert_eq!(sink.count("toggle_flip"), 0);
    }

    #[test]
    fn shared_clock_gives_one_total_order() {
        let a = Arc::new(RingSink::new(1, 16));
        let clock = Clock::new();
        let t1 = Trace::new(a.clone()).with_clock(clock.clone());
        let t2 = Trace::new(a.clone()).with_clock(clock.clone());
        t1.emit(0, Event::RegisterRead);
        t2.emit(0, Event::RegisterWrite);
        t1.emit(0, Event::RegisterRead);
        let seqs: Vec<u64> = a.drain().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(clock.now(), 3);
    }

    #[test]
    fn registry_get_or_create_returns_shared_handles() {
        let r = Registry::new();
        let c1 = r.counter("x.count");
        let c2 = r.counter("x.count");
        c1.add(2);
        c2.inc();
        assert_eq!(c1.get(), 3);
        let g = r.gauge("x.level");
        g.set(-4);
        g.add(1);
        assert_eq!(r.gauge("x.level").get(), -3);
        let names: Vec<String> = r.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["x.count".to_string(), "x.level".to_string()]);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn registry_rejects_type_confusion() {
        let r = Registry::new();
        let _ = r.counter("m");
        let _ = r.gauge("m");
    }

    #[test]
    fn histogram_buckets_are_log2_micros() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_walk_the_buckets() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile_upper_bound(0.5), None);
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket 3: [8, 16)
        }
        h.record(Duration::from_millis(100)); // bucket 16
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.quantile_upper_bound(0.5), Some(16));
        assert_eq!(snap.quantile_upper_bound(1.0), Some(1 << 17));
    }

    #[test]
    fn json_lines_emits_one_parseable_object_per_event() {
        let events = vec![
            TraceEvent { seq: 0, pid: 1, event: Event::ScanBegin { algo: Algo::BoundedSw } },
            TraceEvent {
                seq: 1,
                pid: 0,
                event: Event::AbdQuorumReached {
                    phase: AbdPhaseKind::Query,
                    acks: 2,
                    elapsed_us: 37,
                },
            },
            TraceEvent {
                seq: 2,
                pid: 1,
                event: Event::ScanEnd { algo: Algo::BoundedSw, double_collects: 1, borrowed: false },
            },
        ];
        let out = json_lines(&events);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"pid\":1,\"kind\":\"scan_begin\",\"algo\":\"bounded_sw\"}"
        );
        assert!(lines[1].contains("\"phase\":\"query\""));
        assert!(lines[1].contains("\"elapsed_us\":37"));
        assert!(lines[2].contains("\"borrowed\":false"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn spans_nest_annotate_and_reconstruct() {
        let sink = Arc::new(RingSink::new(2, 128));
        let trace = Trace::new(sink.clone());
        let scan = trace.root_span(0, SpanKind::Scan);
        let attempt = scan.child(SpanKind::Attempt);
        attempt.note("attempt", 1);
        let park = attempt.child(SpanKind::CoalescePark);
        park.end(SpanStatus::Expired);
        attempt.end(SpanStatus::Error);
        scan.end(SpanStatus::Expired);

        let events = sink.drain();
        let forest = SpanForest::build(&events);
        forest.check().expect("span invariants hold");
        assert_eq!(forest.roots().len(), 1);
        let root = forest.roots()[0];
        assert_eq!(root.kind, SpanKind::Scan);
        assert_eq!(root.status, Some(SpanStatus::Expired));
        let attempt = forest.node(root.children[0]).unwrap();
        assert_eq!(attempt.kind, SpanKind::Attempt);
        assert_eq!(attempt.notes, vec![("attempt", 1)]);
        let park = forest.node(attempt.children[0]).unwrap();
        assert_eq!(park.kind, SpanKind::CoalescePark);
        assert_eq!(forest.path_to_root(park.id), vec![park.id, attempt.id, root.id]);
        assert!(forest.attribute_stall(root.id).unwrap().is_stall_phase());
    }

    #[test]
    fn disabled_trace_spans_are_inert() {
        let trace = Trace::disabled();
        let span = trace.root_span(0, SpanKind::Scan);
        assert!(!span.is_recording());
        assert!(span.id().is_none());
        span.note("k", 1);
        let child = span.child(SpanKind::Attempt);
        child.end(SpanStatus::Ok);
        span.end(SpanStatus::Ok);
        assert_eq!(trace.clock().now(), 0);
    }

    #[test]
    fn dropping_a_span_ends_it_ok() {
        let sink = Arc::new(RingSink::new(1, 16));
        let trace = Trace::new(sink.clone());
        {
            let _span = trace.root_span(0, SpanKind::Update);
        }
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[1].event,
            Event::SpanEnd { status: SpanStatus::Ok, kind: SpanKind::Update, .. }
        ));
    }

    #[test]
    fn span_forest_flags_unmatched_and_misnested_spans() {
        // An end without a begin is an orphan.
        let orphan_end = vec![TraceEvent {
            seq: 0,
            pid: 0,
            event: Event::SpanEnd {
                id: 9,
                kind: SpanKind::Scan,
                status: SpanStatus::Ok,
                elapsed_us: 1,
            },
        }];
        assert!(SpanForest::build(&orphan_end).check().is_err());

        // A child ending after its parent violates nesting.
        let misnested = vec![
            TraceEvent { seq: 0, pid: 0, event: Event::SpanBegin { id: 1, parent: 0, kind: SpanKind::Scan } },
            TraceEvent { seq: 1, pid: 0, event: Event::SpanBegin { id: 2, parent: 1, kind: SpanKind::Attempt } },
            TraceEvent {
                seq: 2,
                pid: 0,
                event: Event::SpanEnd { id: 1, kind: SpanKind::Scan, status: SpanStatus::Ok, elapsed_us: 1 },
            },
            TraceEvent {
                seq: 3,
                pid: 0,
                event: Event::SpanEnd { id: 2, kind: SpanKind::Attempt, status: SpanStatus::Ok, elapsed_us: 1 },
            },
        ];
        assert!(SpanForest::build(&misnested).check().is_err());
    }

    #[test]
    fn chrome_tracing_renders_spans_async_with_flow_arrows() {
        let sink = Arc::new(RingSink::new(2, 64));
        let trace = Trace::new(sink.clone());
        let lead_collect = trace.root_span(0, SpanKind::Collect);
        let joiner = trace.root_span(1, SpanKind::CoalescePark);
        joiner.follows_from(lead_collect.id());
        joiner.end(SpanStatus::Ok);
        lead_collect.end(SpanStatus::Ok);

        let out = chrome_tracing(&sink.drain());
        assert_eq!(out.matches("\"ph\":\"b\"").count(), 2);
        assert_eq!(out.matches("\"ph\":\"e\"").count(), 2);
        assert_eq!(out.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(out.matches("\"ph\":\"f\"").count(), 1);
        assert!(out.contains("\"cat\":\"span\""));
        assert!(out.contains("\"cat\":\"flow\""));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn flight_recorder_freezes_the_ring_on_anomalies() {
        let recorder = Arc::new(FlightRecorder::new(16));
        let trace = Trace::new(recorder.clone());
        let span = trace.root_span(2, SpanKind::Scan);
        span.note("attempt", 1);
        trace.emit(2, Event::DeadlineExceeded { attempts: 1, budget_us: 500 });
        span.end(SpanStatus::Expired);

        let dumps = recorder.dumps();
        assert_eq!(dumps.len(), 1);
        let dump = &dumps[0];
        assert_eq!(dump.cause, DumpCause::DeadlineExceeded);
        assert_eq!(dump.events.len(), 3); // begin, note, trigger
        assert!(matches!(dump.events.last().unwrap().event, Event::DeadlineExceeded { .. }));
        let rendered = dump.render();
        let first = rendered.lines().next().unwrap();
        assert!(first.contains("\"kind\":\"flight_dump\""));
        assert!(first.contains("\"cause\":\"deadline_exceeded\""));
        // Every line keeps the jsonl schema: seq ordered, seq/pid/kind.
        let seqs: Vec<u64> = rendered
            .lines()
            .map(|l| {
                assert!(l.contains("\"seq\":") && l.contains("\"pid\":") && l.contains("\"kind\":"));
                l.split("\"seq\":").nth(1).unwrap().split([',', '}']).next().unwrap().parse().unwrap()
            })
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn flight_recorder_bounds_its_dumps() {
        let recorder = Arc::new(FlightRecorder::with_max_dumps(4, 2));
        let trace = Trace::new(recorder.clone());
        for _ in 0..5 {
            trace.emit(0, Event::BreakerTrip { shard: 1, trips: 1 });
        }
        assert_eq!(recorder.dumps().len(), 2);
        assert_eq!(recorder.suppressed(), 3);
        let taken = recorder.take_dumps();
        assert_eq!(taken.len(), 2);
        assert!(recorder.dumps().is_empty());
        assert!(recorder.trigger(DumpCause::Manual));
        assert_eq!(recorder.dumps()[0].cause, DumpCause::Manual);
    }

    #[test]
    fn ring_sink_mirrors_drops_into_the_registry_gauge() {
        let registry = Registry::new();
        let sink = Arc::new(RingSink::new(1, 2).with_registry(&registry));
        let trace = Trace::new(sink.clone());
        for _ in 0..5 {
            trace.emit(0, Event::RegisterRead);
        }
        assert_eq!(sink.dropped(), 3);
        assert_eq!(registry.gauge("obs.ring.dropped").get(), 3);
    }

    #[test]
    fn latency_summary_distills_histogram_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().summary(), LatencySummary::default());
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket 3: [8, 16)
        }
        h.record(Duration::from_millis(100)); // bucket 16
        let s = h.snapshot().summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 16);
        assert_eq!(s.p95_us, 16);
        assert_eq!(s.p99_us, 16);
    }

    #[test]
    fn chrome_tracing_pairs_spans_and_marks_instants() {
        let events = vec![
            TraceEvent { seq: 0, pid: 3, event: Event::UpdateBegin { algo: Algo::MultiWriter } },
            TraceEvent { seq: 1, pid: 3, event: Event::ToggleFlip { word: 0, toggle: true } },
            TraceEvent {
                seq: 2,
                pid: 3,
                event: Event::UpdateEnd { algo: Algo::MultiWriter, double_collects: 1 },
            },
        ];
        let out = chrome_tracing(&events);
        assert!(out.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(out.ends_with("]}"));
        assert_eq!(out.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(out.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(out.matches("\"ph\":\"i\"").count(), 1);
        assert!(out.contains("\"tid\":3"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }
}
