//! Trace exporters: JSON-lines and chrome://tracing.
//!
//! Both are hand-rolled (the workspace takes no serialization dependency
//! for this). Every emitted string field is a static identifier from the
//! event taxonomy, so no JSON string escaping is required.

use crate::event::{Event, TraceEvent};

fn push_field(out: &mut String, key: &str, value: impl std::fmt::Display) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    out.push_str(value);
    out.push('"');
}

/// Appends the variant-specific payload fields of `event` to a JSON object
/// under construction (each field prefixed with a comma).
fn push_payload(out: &mut String, event: &Event) {
    match *event {
        Event::ScanBegin { algo } | Event::UpdateBegin { algo } => {
            push_str_field(out, "algo", algo.name());
        }
        Event::ScanEnd { algo, double_collects, borrowed } => {
            push_str_field(out, "algo", algo.name());
            push_field(out, "double_collects", double_collects);
            push_field(out, "borrowed", borrowed);
        }
        Event::UpdateEnd { algo, double_collects } => {
            push_str_field(out, "algo", algo.name());
            push_field(out, "double_collects", double_collects);
        }
        Event::RoundStart { algo, round } => {
            push_str_field(out, "algo", algo.name());
            push_field(out, "round", round);
        }
        Event::RoundEnd { algo, round, outcome } => {
            push_str_field(out, "algo", algo.name());
            push_field(out, "round", round);
            push_str_field(out, "outcome", outcome.name());
        }
        Event::HandshakeCopy { partner, bit } | Event::HandshakeFlip { partner, bit } => {
            push_field(out, "partner", partner);
            push_field(out, "bit", bit);
        }
        Event::ToggleFlip { word, toggle } => {
            push_field(out, "word", word);
            push_field(out, "toggle", toggle);
        }
        Event::BorrowDecision { lender, moved } => {
            push_field(out, "lender", lender);
            push_field(out, "moved", moved);
        }
        Event::RegisterRead | Event::RegisterWrite => {}
        Event::ScheduleStep { step, op } => {
            push_field(out, "step", step);
            push_str_field(out, "op", op.name());
        }
        Event::AbdPhaseStart { phase } => {
            push_str_field(out, "phase", phase.name());
        }
        Event::AbdRetransmit { phase, attempt, resent } => {
            push_str_field(out, "phase", phase.name());
            push_field(out, "attempt", attempt);
            push_field(out, "resent", resent);
        }
        Event::AbdQuorumReached { phase, acks, elapsed_us } => {
            push_str_field(out, "phase", phase.name());
            push_field(out, "acks", acks);
            push_field(out, "elapsed_us", elapsed_us);
        }
        Event::AbdQuorumFailed { phase, acks, needed } => {
            push_str_field(out, "phase", phase.name());
            push_field(out, "acks", acks);
            push_field(out, "needed", needed);
        }
        Event::CoalesceLead { generation } | Event::CoalesceJoin { generation } => {
            push_field(out, "generation", generation);
        }
        Event::ServiceOverload { inflight } => {
            push_field(out, "inflight", inflight);
        }
        Event::PartialCollect { segments, rounds, fallback } => {
            push_field(out, "segments", segments);
            push_field(out, "rounds", rounds);
            push_field(out, "fallback", fallback);
        }
        Event::PartialFallback { segments } => {
            push_field(out, "segments", segments);
        }
        Event::BackendError { attempt, retryable } => {
            push_field(out, "attempt", attempt);
            push_field(out, "retryable", retryable);
        }
        Event::CoalesceAbdicate { generation } => {
            push_field(out, "generation", generation);
        }
        Event::RetryExhausted { attempts } => {
            push_field(out, "attempts", attempts);
        }
        Event::ShardDegraded { shard, retry_after_us } => {
            push_field(out, "shard", shard);
            push_field(out, "retry_after_us", retry_after_us);
        }
        Event::ShardShed { shard, rank, retry_after_us } => {
            push_field(out, "shard", shard);
            push_field(out, "rank", rank);
            push_field(out, "retry_after_us", retry_after_us);
        }
        Event::DeadlineExceeded { attempts, budget_us } => {
            push_field(out, "attempts", attempts);
            push_field(out, "budget_us", budget_us);
        }
        Event::SpanBegin { id, parent, kind } => {
            push_field(out, "id", id);
            push_field(out, "parent", parent);
            push_str_field(out, "span", kind.name());
        }
        Event::SpanEnd { id, kind, status, elapsed_us } => {
            push_field(out, "id", id);
            push_str_field(out, "span", kind.name());
            push_str_field(out, "status", status.name());
            push_field(out, "elapsed_us", elapsed_us);
        }
        Event::SpanNote { id, key, value } => {
            push_field(out, "id", id);
            push_str_field(out, "key", key);
            push_field(out, "value", value);
        }
        Event::SpanFollows { id, from } => {
            push_field(out, "id", id);
            push_field(out, "from", from);
        }
        Event::BreakerTrip { shard, trips } => {
            push_field(out, "shard", shard);
            push_field(out, "trips", trips);
        }
        Event::LoadReport { hot_shard, skewed, skew_permille, open_shards } => {
            push_field(out, "hot_shard", hot_shard);
            push_field(out, "skewed", skewed);
            push_field(out, "skew_permille", skew_permille);
            push_field(out, "open_shards", open_shards);
        }
        Event::TransportDial { replica, attempt } => {
            push_field(out, "replica", replica);
            push_field(out, "attempt", attempt);
        }
        Event::TransportConnected { replica, attempt } => {
            push_field(out, "replica", replica);
            push_field(out, "attempt", attempt);
        }
        Event::TransportDropped { replica } => {
            push_field(out, "replica", replica);
        }
        Event::StoreTruncated { replica, bytes } => {
            push_field(out, "replica", replica);
            push_field(out, "bytes", bytes);
        }
        Event::StoreCorrupt { replica, offset, truncated } => {
            push_field(out, "replica", replica);
            push_field(out, "offset", offset);
            push_field(out, "truncated", truncated);
        }
        Event::StoreCheckpoint { replica, registers, bytes } => {
            push_field(out, "replica", replica);
            push_field(out, "registers", registers);
            push_field(out, "bytes", bytes);
        }
        Event::StoreCheckpointFailed { replica } => {
            push_field(out, "replica", replica);
        }
        Event::StoreReplayed { replica, checkpoint_registers, records, elapsed_us } => {
            push_field(out, "replica", replica);
            push_field(out, "checkpoint_registers", checkpoint_registers);
            push_field(out, "records", records);
            push_field(out, "elapsed_us", elapsed_us);
        }
    }
}

/// Renders events as JSON-lines: one JSON object per line with `seq`,
/// `pid`, `kind`, and the variant's payload fields.
pub fn json_lines(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for e in events {
        out.push_str("{\"seq\":");
        out.push_str(&e.seq.to_string());
        push_field(&mut out, "pid", e.pid);
        push_str_field(&mut out, "kind", e.event.kind());
        push_payload(&mut out, &e.event);
        out.push_str("}\n");
    }
    out
}

/// Opens one trace event object with the five fields every event carries
/// (`name`, `ph`, `pid`, `tid`, `ts`), leaving the object unterminated so
/// the caller can append event-specific fields.
fn open_chrome_event(out: &mut String, first: &mut bool, name: &str, ph: &str, tid: usize, ts: u64) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("{\"name\":\"");
    out.push_str(name);
    out.push_str("\",\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"pid\":0");
    push_field(out, "tid", tid);
    push_field(out, "ts", ts);
}

fn push_chrome_args(out: &mut String, e: &TraceEvent) {
    out.push_str(",\"args\":{\"seq\":");
    out.push_str(&e.seq.to_string());
    push_str_field(out, "kind", e.event.kind());
    push_payload(out, &e.event);
    out.push('}');
}

/// Renders events as a chrome://tracing (`about:tracing` / Perfetto)
/// "Trace Event Format" JSON document.
///
/// Scan/update begin/end pairs become duration spans (`ph: "B"`/`"E"`);
/// causal spans ([`Event::SpanBegin`] / [`Event::SpanEnd`]) become async
/// spans (`ph: "b"`/`"e"`, category `span`, keyed by span id) so nested
/// request phases render as stacked tracks; [`Event::SpanFollows`] links
/// become flow arrows (`ph: "s"` at the producing span's begin, `ph: "f"`
/// at the consumer — the coalesce-join → lead arrow); everything else
/// becomes an instant event (`ph: "i"`, thread scope). A follows link
/// whose producing span's begin is not in `events` (evicted from a
/// bounded ring) degrades to an instant. Timestamps are the logical
/// sequence numbers (the trace is a logical schedule, not a wall-clock
/// profile), and each process id becomes a `tid` so the viewer shows one
/// track per process.
pub fn chrome_tracing(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    // Flow arrows anchor at the producing span's begin coordinates, so
    // index the begins up front: (span id, seq, pid).
    let begins: Vec<(u64, u64, usize)> = events
        .iter()
        .filter_map(|e| match e.event {
            Event::SpanBegin { id, .. } => Some((id, e.seq, e.pid)),
            _ => None,
        })
        .collect();
    let begin_of =
        |id: u64| begins.iter().find(|(i, _, _)| *i == id).map(|&(_, seq, pid)| (seq, pid));
    let mut first = true;
    for e in events {
        match e.event {
            Event::SpanBegin { id, kind, .. } => {
                open_chrome_event(&mut out, &mut first, kind.name(), "b", e.pid, e.seq);
                push_str_field(&mut out, "cat", "span");
                push_field(&mut out, "id", id);
                push_chrome_args(&mut out, e);
                out.push('}');
            }
            Event::SpanEnd { id, kind, .. } => {
                open_chrome_event(&mut out, &mut first, kind.name(), "e", e.pid, e.seq);
                push_str_field(&mut out, "cat", "span");
                push_field(&mut out, "id", id);
                push_chrome_args(&mut out, e);
                out.push('}');
            }
            Event::SpanFollows { from, .. } if begin_of(from).is_some() => {
                let (from_seq, from_pid) = begin_of(from).expect("guard checked");
                open_chrome_event(&mut out, &mut first, "follows", "s", from_pid, from_seq);
                push_str_field(&mut out, "cat", "flow");
                push_field(&mut out, "id", e.seq);
                out.push('}');
                open_chrome_event(&mut out, &mut first, "follows", "f", e.pid, e.seq);
                push_str_field(&mut out, "cat", "flow");
                push_str_field(&mut out, "bp", "e");
                push_field(&mut out, "id", e.seq);
                push_chrome_args(&mut out, e);
                out.push('}');
            }
            _ => {
                let (ph, name): (&str, &str) = match e.event {
                    Event::ScanBegin { .. } => ("B", "scan"),
                    Event::ScanEnd { .. } => ("E", "scan"),
                    Event::UpdateBegin { .. } => ("B", "update"),
                    Event::UpdateEnd { .. } => ("E", "update"),
                    _ => ("i", e.event.kind()),
                };
                open_chrome_event(&mut out, &mut first, name, ph, e.pid, e.seq);
                if ph == "i" {
                    push_str_field(&mut out, "s", "t");
                }
                push_chrome_args(&mut out, e);
                out.push('}');
            }
        }
    }
    out.push_str("]}");
    out
}
