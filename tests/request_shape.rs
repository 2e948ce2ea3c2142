//! One request shape, one trait: `try_scan` / `try_update` /
//! `try_scan_subset`, each taking a `RequestCtx`, driven through
//! `&dyn TrySnapshotCore<u64>` (object safety) for every core in the tree
//! — the four in-process constructions and `AbdSnapshotCore` on a
//! simulated network — under the three contexts a request can carry:
//! none, an already-expired deadline, and a traced span.

use std::sync::Arc;
use std::time::{Duration, Instant};

use snapshot_abd::{AbdSnapshotCore, Network, NetworkConfig};
use snapshot_core::{
    BoundedSnapshot, Deadline, LockSnapshot, MultiWriterSnapshot, RequestCtx, TrySnapshotCore,
    UnboundedSnapshot,
};
use snapshot_obs::{RingSink, SpanForest, SpanKind, SpanStatus, Trace};
use snapshot_registers::ProcessId;

const N: usize = 3;

/// The three operations under `ctx` on a healthy core: an update lands,
/// a full scan and a subset scan both see it.
fn exercise(name: &str, core: &dyn TrySnapshotCore<u64>, ctx: RequestCtx, value: u64) {
    let lane = ProcessId::new(1);
    assert_eq!((core.segments(), core.lanes()), (N, N), "{name}");
    let _ = core
        .try_update(lane, 1, value, ctx)
        .unwrap_or_else(|e| panic!("{name}: update: {e}"));
    let (view, _) = core.try_scan(lane, ctx).unwrap_or_else(|e| panic!("{name}: scan: {e}"));
    assert_eq!(view.to_vec(), vec![0, value, 0], "{name}");
    let (values, _) = core
        .try_scan_subset(lane, &[1, 2], ctx)
        .unwrap_or_else(|e| panic!("{name}: subset: {e}"))
        .unwrap_or_else(|| panic!("{name}: a quiescent native subset scan always certifies"));
    assert_eq!(values, vec![value, 0], "{name}");
}

#[test]
fn every_core_serves_the_three_operations_under_every_context() {
    let sink = Arc::new(RingSink::new(N, 4096));
    let trace = Trace::new(sink.clone());
    let network =
        Arc::new(Network::with_config(NetworkConfig::new(3).with_trace(trace.clone())));
    let unbounded = UnboundedSnapshot::new(N, 0u64);
    let bounded = BoundedSnapshot::new(N, 0u64);
    let locked = LockSnapshot::new(N, 0u64);
    let multiwriter = MultiWriterSnapshot::new(N, N, 0u64);
    let abd = AbdSnapshotCore::new(&network, N, 0u64);
    let in_process: [(&str, &dyn TrySnapshotCore<u64>); 4] = [
        ("unbounded", &unbounded),
        ("bounded", &bounded),
        ("locked", &locked),
        ("multiwriter", &multiwriter),
    ];
    let expired = RequestCtx::by(Deadline::at(Instant::now()));
    assert!(expired.deadline.expired());

    // No deadline, no span.
    for (name, core) in in_process {
        exercise(name, core, RequestCtx::none(), 7);
    }
    exercise("abd", &abd, RequestCtx::none(), 7);

    // An in-process core is wait-free: there is nothing for a deadline to
    // cut, so an already-expired one must not stop it.
    for (name, core) in in_process {
        exercise(name, core, expired, 8);
    }

    // A traced context: every quorum pass of the ABD core parents under
    // the given span (the in-process cores have no phase worth a span).
    let _ = sink.drain(); // the untraced passes above opened parentless spans
    let root = trace.root_span(1, SpanKind::Scan);
    let parent = root.id();
    let traced = RequestCtx::none().under(parent);
    assert!(traced.is_traced());
    for (name, core) in in_process {
        exercise(name, core, traced, 9);
    }
    exercise("abd", &abd, traced, 9);
    root.end(SpanStatus::Ok);
    let forest = SpanForest::build(&sink.drain());
    forest.check().expect("well-formed span forest");
    let phases: Vec<_> = forest
        .nodes()
        .iter()
        .filter(|n| matches!(n.kind, SpanKind::QuorumQuery | SpanKind::QuorumStore))
        .collect();
    assert!(phases.iter().any(|n| n.kind == SpanKind::QuorumStore), "the update's write");
    assert!(phases.len() >= 7, "update (2 collects + store) + scan (2) + subset (2)");
    for phase in phases {
        assert_eq!(phase.parent, parent.raw(), "{phase:?} must parent under the request");
    }
}

#[test]
fn abd_honors_the_deadline_not_the_op_timeout() {
    // op_timeout is deliberately huge: with a majority partitioned away,
    // only the context's deadline can end an operation quickly, and it
    // must do so with the retryable error.
    let network = Arc::new(Network::with_config(
        NetworkConfig::new(3).with_op_timeout(Duration::from_secs(30)),
    ));
    let abd = AbdSnapshotCore::new(&network, N, 0u64);
    let core: &dyn TrySnapshotCore<u64> = &abd;
    let lane = ProcessId::new(0);
    network.partition(&[0, 1]);
    for budget in [Duration::ZERO, Duration::from_millis(20)] {
        let ctx = RequestCtx::by(Deadline::after(budget));
        let started = Instant::now();
        let errors = [
            core.try_scan(lane, ctx).map(|_| ()).unwrap_err(),
            core.try_update(lane, 0, 5, ctx).map(|_| ()).unwrap_err(),
            core.try_scan_subset(lane, &[0, 2], ctx).map(|_| ()).unwrap_err(),
        ];
        for error in errors {
            assert!(error.retryable(), "deadline expiry is the retryable boundary: {error}");
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "three operations under a {budget:?} budget took {:?}",
            started.elapsed()
        );
    }
    // The lane was released each time, and the healed core answers.
    network.heal();
    let _ = core.try_update(lane, 0, 6, RequestCtx::none()).unwrap();
    assert_eq!(core.try_scan(lane, RequestCtx::none()).unwrap().0[0], 6);
}
