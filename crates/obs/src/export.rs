//! Trace exporters: JSON-lines and chrome://tracing.
//!
//! Both are hand-rolled (the workspace takes no serialization dependency
//! for this). Every emitted string field is a static identifier from the
//! event taxonomy, so no JSON string escaping is required.

use std::fmt::Write;

use crate::event::{Event, TraceEvent, Value};

fn push_field(out: &mut String, key: &str, value: Value) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    match value {
        Value::Name(name) => {
            out.push('"');
            out.push_str(name);
            out.push('"');
        }
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

/// Appends the event's `kind` and its fields to a JSON object under
/// construction, each prefixed with a comma.
fn push_fields(out: &mut String, event: &Event) {
    let fields = event.fields();
    push_field(out, "kind", Value::Name(fields.kind));
    for &(key, value) in fields.pairs() {
        push_field(out, key, value);
    }
}

/// Renders events as JSON-lines: one JSON object per line with `seq`,
/// `pid`, `kind`, and the variant's payload fields.
pub fn json_lines(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for e in events {
        let _ = write!(out, "{{\"seq\":{},\"pid\":{}", e.seq, e.pid);
        push_fields(&mut out, &e.event);
        out.push_str("}\n");
    }
    out
}

/// Renders events as a chrome://tracing (`about:tracing` / Perfetto)
/// "Trace Event Format" JSON document.
///
/// Scan/update begin/end pairs become duration spans (`ph: "B"`/`"E"`);
/// causal spans ([`Event::SpanBegin`] / [`Event::SpanEnd`]) become async
/// spans (`ph: "b"`/`"e"`, category `span`, keyed by span id) so nested
/// request phases render as stacked tracks; everything else becomes an
/// instant event (`ph: "i"`, thread scope). Timestamps are the logical
/// sequence numbers (the trace is a logical schedule, not a wall-clock
/// profile), and each process id becomes a `tid` so the viewer shows one
/// track per process. Each event's `args` carry its JSON-lines fields
/// minus the `pid`.
pub fn chrome_tracing(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        let (name, ph, span_id) = match e.event {
            Event::SpanBegin { id, kind, .. } => (kind.name(), "b", Some(id)),
            Event::SpanEnd { id, kind, .. } => (kind.name(), "e", Some(id)),
            Event::ScanBegin { .. } => ("scan", "B", None),
            Event::ScanEnd { .. } => ("scan", "E", None),
            Event::UpdateBegin { .. } => ("update", "B", None),
            Event::UpdateEnd { .. } => ("update", "E", None),
            _ => (e.event.kind(), "i", None),
        };
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"pid\":0,\"tid\":{},\"ts\":{}",
            e.pid, e.seq
        );
        match span_id {
            Some(id) => {
                let _ = write!(out, ",\"cat\":\"span\",\"id\":{id}");
            }
            None if ph == "i" => out.push_str(",\"s\":\"t\""),
            None => {}
        }
        let _ = write!(out, ",\"args\":{{\"seq\":{}", e.seq);
        push_fields(&mut out, &e.event);
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}
