//! Byte-exact rendering of every `Event` variant.
//!
//! One instance of each variant, every field set to a value no other
//! field shares, is rendered through both exporters and compared with
//! the text checked in under `tests/golden/`. A change to a variant's
//! JSON key, field order, value spelling or chrome phase shows up here
//! as a diff against that text.

use snapshot_obs::{
    chrome_tracing, json_lines, AbdPhaseKind, Algo, Event, RegOp, RoundOutcome, SpanKind,
    SpanStatus, TraceEvent,
};

fn one_of_each() -> Vec<Event> {
    vec![
        Event::ScanBegin { algo: Algo::UnboundedSw },
        Event::ScanEnd { algo: Algo::BoundedSw, double_collects: 3, borrowed: true },
        Event::UpdateBegin { algo: Algo::MultiWriter },
        Event::UpdateEnd { algo: Algo::DoubleCollect, double_collects: 4 },
        Event::RoundStart { algo: Algo::UnboundedSw, round: 5 },
        Event::RoundEnd { algo: Algo::BoundedSw, round: 6, outcome: RoundOutcome::Moved },
        Event::HandshakeCopy { partner: 7, bit: true },
        Event::HandshakeFlip { partner: 8, bit: false },
        Event::ToggleFlip { word: 9, toggle: true },
        Event::BorrowDecision { lender: 10, moved: 11 },
        Event::RegisterRead,
        Event::RegisterWrite,
        Event::ScheduleStep { step: 12, op: RegOp::Write },
        Event::AbdPhaseStart { phase: AbdPhaseKind::Query },
        Event::AbdRetransmit { phase: AbdPhaseKind::Store, attempt: 13, resent: 14 },
        Event::AbdQuorumReached { phase: AbdPhaseKind::Query, acks: 15, elapsed_us: 16 },
        Event::AbdQuorumFailed { phase: AbdPhaseKind::Store, acks: 17, needed: 18 },
        Event::ServiceOverload { inflight: 19 },
        Event::PartialCollect { segments: 20, rounds: 21, fallback: true },
        Event::PartialFallback { segments: 22 },
        Event::BackendError { attempt: 23, retryable: false },
        Event::RetryExhausted { attempts: 24 },
        Event::ShardShed { shard: 25, rank: 26, retry_after_us: 27 },
        Event::DeadlineExceeded { attempts: 28, budget_us: 29 },
        Event::SpanBegin { id: 30, parent: 31, kind: SpanKind::PartialScan },
        Event::SpanEnd { id: 32, kind: SpanKind::QuorumStore, status: SpanStatus::Expired, elapsed_us: 33 },
        Event::SpanNote { id: 34, key: "shard", value: 35 },
        Event::BreakerTrip { shard: 36, trips: 37 },
        Event::TransportDial { replica: 41, attempt: 42 },
        Event::TransportConnected { replica: 43, attempt: 44 },
        Event::TransportDropped { replica: 45 },
        Event::StoreTruncated { replica: 46, bytes: 47 },
        Event::StoreCorrupt { replica: 48, offset: 49, truncated: false },
        Event::StoreCheckpoint { replica: 50, registers: 51, bytes: 52 },
        Event::StoreCheckpointFailed { replica: 53 },
        Event::StoreReplayed { replica: 54, checkpoint_registers: 55, records: 56, elapsed_us: 57 },
    ]
}

fn stamped() -> Vec<TraceEvent> {
    one_of_each()
        .into_iter()
        .enumerate()
        .map(|(i, event)| TraceEvent { seq: 100 + i as u64, pid: i % 3, event })
        .collect()
}

#[test]
fn every_variant_renders_to_the_checked_in_json_lines() {
    let events = stamped();
    assert_eq!(events.len(), 36, "one instance per variant");
    assert_eq!(json_lines(&events), include_str!("golden/events.jsonl"));
}

#[test]
fn every_variant_renders_to_the_checked_in_chrome_trace() {
    assert_eq!(chrome_tracing(&stamped()), include_str!("golden/events.chrome.json"));
}
