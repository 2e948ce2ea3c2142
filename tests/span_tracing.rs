//! Integration tests for the causal span plane: every service operation
//! yields a reconstructable span tree over the shared trace clock.
//!
//! The invariants under test, end to end through
//! `SnapshotService` → retry loop → backing core:
//!
//! * **Balanced, nested trees.** Every span end has a matching begin, ids
//!   are unique, and children nest inside their parents on the shared
//!   seq axis (`SpanForest::check`).
//! * **Anomalies carry their span path.** A forced `DeadlineExceeded`
//!   freezes the flight recorder with the expired request's span path
//!   (root → attempt → collect) already in the ring, the attempt marked
//!   expired.
//! * **Quorum phases attach to the request.** With the service and the
//!   ABD network sharing one `Trace`, the core's `QuorumQuery` /
//!   `QuorumStore` spans nest under the service's collect and attempt
//!   spans.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use snapshot_abd::{AbdSnapshotCore, Network, NetworkConfig};
use snapshot_bench::scripted::{gated_core, Gate};
use snapshot_core::{TrySnapshotCore, UnboundedSnapshot};
use snapshot_obs::{
    chrome_tracing, DumpCause, FlightRecorder, RingSink, SpanForest, SpanKind,
    SpanStatus, Trace,
};
use snapshot_service::{HealthConfig, ServiceConfig, ServiceError, SnapshotService};

/// Core whose scans spin while the gate is held, until their request's
/// deadline: the deterministic way to stall a collect (same pattern as
/// the nemesis suite's scripted core).
fn gate_core(n: usize) -> (impl TrySnapshotCore<u64>, Gate) {
    gated_core(UnboundedSnapshot::new(n, 0u64), 0)
}

#[test]
fn span_forest_invariants_hold_across_traced_operations() {
    const LANES: usize = 3;
    let sink = Arc::new(RingSink::new(LANES, 4096));
    let trace = Trace::new(sink.clone());
    let service = SnapshotService::new(UnboundedSnapshot::new(LANES, 0u64))
        .with_trace(trace.clone());
    let mut client = service.client(0);

    client.update(0, 7).unwrap();
    let view = client.scan().unwrap();
    assert_eq!(view[0], 7);
    let partial = client.scan_subset(&[1]).unwrap();
    assert_eq!(partial.segments(), &[1]);
    client.probe_shard(0).unwrap();
    // A zero budget expires at admission: the root span must still open
    // (and end Expired) so the expiry is visible in the tree.
    match client.scan_with_stats(Some(Duration::ZERO)).unwrap_err() {
        ServiceError::DeadlineExceeded { .. } => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    let events = sink.drain();
    let forest = SpanForest::build(&events);
    forest.check().expect("span-tree invariants");
    assert!(forest.orphans().is_empty(), "every end/note has a matching begin");
    assert!(
        forest.nodes().iter().all(|n| n.end_seq.is_some()),
        "every span begun was ended: {forest}"
    );

    // One root per client operation, each of the operation's own kind.
    let roots = forest.roots();
    let root_kinds: Vec<SpanKind> = roots.iter().map(|r| r.kind).collect();
    assert_eq!(
        root_kinds,
        vec![SpanKind::Update, SpanKind::Scan, SpanKind::PartialScan, SpanKind::Probe, SpanKind::Scan],
        "one root span per operation, in issue order: {forest}"
    );
    assert_eq!(roots[4].status, Some(SpanStatus::Expired), "zero-budget scan expired");
    for root in &roots[..4] {
        assert_eq!(root.status, Some(SpanStatus::Ok));
        assert!(
            root.children.iter().any(|&c| forest.node(c).unwrap().kind == SpanKind::Attempt),
            "every successful op ran at least one attempt: {forest}"
        );
    }

    // The same events export as chrome tracing (CI validates the schema).
    let chrome = chrome_tracing(&events);
    assert!(chrome.contains("\"ph\":\"b\"") && chrome.contains("\"ph\":\"e\""));
}

#[test]
fn flight_recorder_dump_contains_the_expired_requests_span_path() {
    const CLIENTS: usize = 2;
    let (core, Gate { held: gate, entered, .. }) = gate_core(CLIENTS);
    gate.store(true, Ordering::SeqCst);

    let recorder = Arc::new(FlightRecorder::new(RingSink::new(CLIENTS, 512)));
    let trace = Trace::new(recorder.clone());
    let service = SnapshotService::with_config(
        core,
        ServiceConfig { health: HealthConfig::disabled(), ..ServiceConfig::default() },
    )
    .with_trace(trace);

    std::thread::scope(|s| {
        let lead = {
            let service = &service;
            s.spawn(move || service.client(0).scan().unwrap())
        };
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // A second scan stalls in the held collect too, carrying its own
        // small budget; it must expire while the first is still stuck.
        let budget = Some(Duration::from_millis(20));
        let err = service.client(1).scan_with_stats(budget).unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded { attempts: 1, .. }), "{err:?}");
        gate.store(false, Ordering::SeqCst);
        lead.join().unwrap();
    });

    let dumps = recorder.dumps();
    let dump = dumps
        .iter()
        .find(|d| d.cause == DumpCause::DeadlineExceeded)
        .expect("the expiry froze a flight dump");

    // The dump alone — not the full trace — reconstructs the expired
    // request's span path: its collect and attempt ended before the
    // trigger event, the attempt marked Expired, and the root's begin is
    // in the ring.
    let forest = SpanForest::build(&dump.events);
    let attempt = forest
        .nodes()
        .iter()
        .find(|n| n.kind == SpanKind::Attempt && n.status == Some(SpanStatus::Expired))
        .expect("the expired attempt span is in the dump");
    assert_eq!(attempt.pid, 1, "the expiry belongs to the budgeted lane");
    let path = forest.path_to_root(attempt.id);
    assert_eq!(path.len(), 2, "attempt → root both in the dump: {forest}");
    assert_eq!(forest.node(path[1]).unwrap().kind, SpanKind::Scan);
    let collect = forest.node(attempt.children[0]).expect("the stalled collect is in the dump");
    assert_eq!(collect.kind, SpanKind::Collect);
    assert!(collect.end_seq.is_some(), "the collect gave up at the deadline: {forest}");
    assert_eq!(
        forest.attribute_stall(path[1]).map(|n| n.id),
        Some(collect.id),
        "the stall is attributed to the collect: {forest}"
    );

    // The rendered dump is schema-compatible JSON-lines with the cause
    // in the header.
    let rendered = dump.render();
    let header = rendered.lines().next().unwrap();
    assert!(header.contains("\"kind\":\"flight_dump\""));
    assert!(header.contains("\"cause\":\"deadline_exceeded\""));
    assert_eq!(rendered.lines().count(), dump.events.len() + 1);
}

#[test]
fn abd_quorum_phases_nest_under_the_services_spans() {
    const LANES: usize = 2;
    let sink = Arc::new(RingSink::new(LANES, 4096));
    let trace = Trace::new(sink.clone());
    // One shared Trace: the service's spans and the ABD core's quorum
    // phases land on the same clock axis, so the trees connect.
    let network = Arc::new(Network::with_config(
        NetworkConfig::new(3).with_trace(trace.clone()),
    ));
    let service = SnapshotService::new(AbdSnapshotCore::new(&network, LANES, 0u64))
        .with_trace(trace.clone());
    let mut client = service.client(0);

    client.update(0, 11).unwrap();
    assert_eq!(client.scan().unwrap()[0], 11);

    let events = sink.drain();
    let forest = SpanForest::build(&events);
    forest.check().expect("span-tree invariants");

    // The update's quorum store hangs off the update's attempt span.
    let store = forest
        .nodes()
        .iter()
        .find(|n| n.kind == SpanKind::QuorumStore)
        .expect("update ran a quorum store");
    let store_path = forest.path_to_root(store.id);
    assert_eq!(forest.node(store_path[1]).unwrap().kind, SpanKind::Attempt);
    assert_eq!(
        forest.node(*store_path.last().unwrap()).unwrap().kind,
        SpanKind::Update,
        "quorum store attributes to the update that issued it: {forest}"
    );

    // The scan's collect span has the double collect's quorum queries as
    // children — the named phase a stalled scan would be attributed to.
    let collect = forest
        .nodes()
        .iter()
        .find(|n| {
            n.kind == SpanKind::Collect
                && n.children
                    .iter()
                    .any(|&c| forest.node(c).unwrap().kind == SpanKind::QuorumQuery)
        })
        .expect("the scan's collect parented its quorum queries");
    let queries = collect
        .children
        .iter()
        .filter(|&&c| forest.node(c).unwrap().kind == SpanKind::QuorumQuery)
        .count();
    assert!(queries >= 2, "a double collect runs at least two quorum queries: {forest}");
    assert_eq!(
        forest.node(*forest.path_to_root(collect.id).last().unwrap()).unwrap().kind,
        SpanKind::Scan
    );
}
