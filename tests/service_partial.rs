//! Partial scans through the service, checked against the projected
//! sequential spec.
//!
//! The service serves `scan_subset` three ways — the backing's native
//! O(touched-segments) subset scan (all in-tree constructions),
//! shard-coalesced range views, and projected full scans (the wait-free
//! second rung, the only option for a backing without a native path) —
//! and all three must produce views that are instantaneous pictures of
//! the requested projection. The concurrent tests record every operation
//! with a shared logical clock and hand the histories to the Wing & Gong
//! checker under `snapshot_lin::check_partial_history`; the ladder test
//! checks from the `service.partial.*` counters that the two rungs are
//! total — every partial request is accounted to exactly one way of
//! being served.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use snapshot_abd::{AbdSnapshotCore, Network, NetworkConfig};
use snapshot_core::{
    BoundedSnapshot, CoreError, LockSnapshot, MultiWriterSnapshot, RequestCtx, ScanStats,
    SnapshotView, TrySnapshotCore, UnboundedSnapshot,
};
use snapshot_lin::{check_partial_history, PartialOp, WgOp, WgResult};
use snapshot_obs::{Clock, Registry};
use snapshot_registers::ProcessId;
use snapshot_service::{ServiceConfig, SnapshotService};

// ---------------------------------------------------------------------------
// Quiescent ground truth
// ---------------------------------------------------------------------------

#[test]
fn quiescent_partial_scans_equal_the_projected_full_scan() {
    let service = SnapshotService::new(UnboundedSnapshot::new(6, 0u64));
    for lane in 0..6 {
        // Claim each lane transiently just to seed its segment.
        let mut writer = service.client(lane);
        writer.update(lane, 100 + lane as u64).unwrap();
    }
    let mut client = service.client(0);
    let full = client.scan().unwrap();
    for subset in [vec![0], vec![5], vec![1, 4], vec![0, 2, 3, 5], (0..6).collect()] {
        let view = client.scan_subset(&subset).unwrap();
        assert_eq!(view.segments(), subset.as_slice());
        let expected: Vec<u64> = subset.iter().map(|&s| full[s]).collect();
        assert_eq!(view.values(), expected.as_slice(), "subset {subset:?}");
    }
}

/// A backing with no native subset path (`try_scan_subset` keeps its
/// default): the projected full scan is its only way to answer a subset.
struct Opaque<C>(C);

impl<V, C: TrySnapshotCore<V>> TrySnapshotCore<V> for Opaque<C> {
    fn segments(&self) -> usize {
        self.0.segments()
    }
    fn lanes(&self) -> usize {
        self.0.lanes()
    }
    fn single_writer(&self) -> bool {
        self.0.single_writer()
    }
    fn try_scan(
        &self,
        lane: ProcessId,
        ctx: RequestCtx,
    ) -> Result<(SnapshotView<V>, ScanStats), CoreError> {
        self.0.try_scan(lane, ctx)
    }
    fn try_update(
        &self,
        lane: ProcessId,
        segment: usize,
        value: V,
        ctx: RequestCtx,
    ) -> Result<ScanStats, CoreError> {
        self.0.try_update(lane, segment, value, ctx)
    }
}

#[test]
fn native_and_fallback_paths_report_themselves() {
    // Unbounded: the native subset scan answers at O(touched) cost — two
    // passes of two registers per round, no borrow when quiescent.
    let native = SnapshotService::with_config(
        UnboundedSnapshot::new(4, 0u64),
        ServiceConfig { coalesce: false, ..ServiceConfig::default() },
    );
    let mut c = native.client(0);
    let (_, stats) = c.scan_subset_with_stats(&[0, 3], None).unwrap();
    assert!(stats.native_subset);
    assert!(!stats.fallback_full);
    assert!(stats.underlying.double_collects >= 1);
    assert_eq!(stats.underlying.reads, 2 * 2 * u64::from(stats.underlying.double_collects));

    // Bounded: no per-write sequence numbers, but the subset handshake
    // gives it a native path too.
    let bounded = SnapshotService::with_config(
        BoundedSnapshot::new(4, 0u64),
        ServiceConfig { coalesce: false, ..ServiceConfig::default() },
    );
    let mut c = bounded.client(0);
    let (_, stats) = c.scan_subset_with_stats(&[0, 3], None).unwrap();
    assert!(stats.native_subset);
    assert!(!stats.fallback_full);

    // Opaque wrapper: no native path, so the service projects a full
    // scan instead.
    let fallback = SnapshotService::with_config(
        Opaque(BoundedSnapshot::new(4, 0u64)),
        ServiceConfig { coalesce: false, ..ServiceConfig::default() },
    );
    let mut c = fallback.client(0);
    let (_, stats) = c.scan_subset_with_stats(&[0, 3], None).unwrap();
    assert!(stats.fallback_full);
    assert!(!stats.native_subset);
    assert!(stats.underlying.reads > 0, "the fallback runs a real collect");
}

#[test]
fn opaque_backings_fall_back_on_both_service_paths() {
    // With coalescing on, a multi-shard subset collects directly and a
    // single-shard one through the shard rendezvous; over a backing with
    // no native path both must fall back, the shard leader must report
    // it, and the certified ratio sags to zero.
    let svc = SnapshotService::with_config(
        Opaque(BoundedSnapshot::new(4, 0u32)),
        ServiceConfig { shards: 2, ..ServiceConfig::default() },
    );
    let mut c = svc.client(0);
    c.update(0, 5).unwrap();
    let (view, stats) = c.scan_subset_with_stats(&[0, 3], None).unwrap(); // spans both shards
    assert_eq!(view.values(), &[5, 0]);
    assert!(stats.fallback_full);
    assert!(!stats.native_subset);

    let (view, stats) = c.scan_subset_with_stats(&[0, 1], None).unwrap(); // single shard
    assert_eq!(view.values(), &[5, 0]);
    assert!(stats.fallback_full, "shard leader must report its fallback");
    assert_eq!(svc.partial_certified_permille(), 0);
    assert_eq!(svc.load_report().partial_certified_permille, 0);
}

// ---------------------------------------------------------------------------
// The two-rung ladder is total
// ---------------------------------------------------------------------------

/// How the `service.partial.*` counters split the partial requests of one
/// [`ladder_tally`] run.
struct LadderTally {
    /// `service.scan.partial`: partial requests admitted.
    partial: u64,
    /// `service.partial.native`: native subset collects run.
    native: u64,
    /// `service.partial.fallback_full`: requests served by a projected
    /// full scan.
    fallback: u64,
    /// Requests that ran neither rung: they joined a shard cohort, or
    /// covered every segment and were served as a full scan.
    other: u64,
}

/// Every lane of a service over `core` (4 segments, 2 shards) alternates
/// an update with a subset scan — a one-shard pair, a two-shard pair,
/// full coverage in turn — concurrently with the others.
fn ladder_tally<C: TrySnapshotCore<u64>>(core: C, rounds: usize) -> LadderTally {
    let single_writer = core.single_writer();
    let words = core.segments();
    assert_eq!(words, 4);
    let lanes = core.lanes();
    let registry = Registry::new();
    let service =
        SnapshotService::with_config(core, ServiceConfig { shards: 2, ..ServiceConfig::default() })
            .with_registry(&registry);
    let other = AtomicU64::new(0);
    std::thread::scope(|s| {
        for lane in 0..lanes {
            let (service, other) = (&service, &other);
            s.spawn(move || {
                let mut client = service.client(lane);
                for k in 0..rounds {
                    let word = if single_writer { lane } else { (lane + k) % words };
                    client.update(word, ((lane as u64) << 32) | (k as u64 + 1)).expect("update");
                    let subset: &[usize] = match k % 3 {
                        0 => &[0, 1],
                        1 => &[0, 3],
                        _ => &[0, 1, 2, 3],
                    };
                    let (_, stats) =
                        client.scan_subset_with_stats(subset, None).expect("valid subset");
                    assert!(!(stats.native_subset && stats.fallback_full), "one rung per request");
                    if !stats.native_subset && !stats.fallback_full {
                        other.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let tally = LadderTally {
        partial: registry.counter("service.scan.partial").get(),
        native: registry.counter("service.partial.native").get(),
        fallback: registry.counter("service.partial.fallback_full").get(),
        other: other.into_inner(),
    };
    assert_eq!(tally.partial, (lanes * rounds) as u64);
    assert_eq!(
        tally.native + tally.fallback + tally.other,
        tally.partial,
        "every partial request is served exactly one way: native {} + fallback {} + other {}",
        tally.native,
        tally.fallback,
        tally.other
    );
    tally
}

#[test]
fn the_two_rung_ladder_is_total_over_every_backing() {
    // Helping natives are wait-free: the second rung is never taken.
    let network = Arc::new(Network::with_config(NetworkConfig::new(3)));
    let wait_free = [
        ("unbounded", ladder_tally(UnboundedSnapshot::new(4, 0u64), 60)),
        ("bounded", ladder_tally(BoundedSnapshot::new(4, 0u64), 60)),
        ("locked", ladder_tally(LockSnapshot::new(4, 0u64), 60)),
        ("abd-sim", ladder_tally(AbdSnapshotCore::new(&network, 4, 0u64), 12)),
    ];
    for (name, tally) in wait_free {
        assert_eq!(tally.fallback, 0, "{name}: a wait-free native path never falls back");
        assert!(tally.native > 0, "{name}");
    }
    // The multi-writer native path is bounded, not wait-free: it may
    // give up under contention, and the identity is all that must hold.
    ladder_tally(MultiWriterSnapshot::new(4, 4, 0u64), 60);
    // No native path at all: the projected full scan serves everything
    // that neither joined a cohort nor was a full scan to begin with.
    let opaque = ladder_tally(Opaque(BoundedSnapshot::new(4, 0u64)), 60);
    assert_eq!(opaque.native, 0);
    assert!(opaque.fallback > 0);
}

// ---------------------------------------------------------------------------
// Concurrent histories against the projected spec
// ---------------------------------------------------------------------------

/// Drives `threads` lanes of mixed updates / subset scans / full scans
/// through a service over `core`, recording a `PartialOp` history on one
/// shared clock, and returns the checker's verdict.
fn run_partial_history<C: TrySnapshotCore<u64>>(core: C, ops_per_thread: usize) -> WgResult {
    let single_writer = core.single_writer();
    let words = core.segments();
    let threads = core.lanes();
    let service = SnapshotService::with_config(
        core,
        ServiceConfig { shards: 2, ..ServiceConfig::default() },
    );
    let clock = Clock::new();
    let ops: Mutex<Vec<WgOp<PartialOp<u64>>>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for lane in 0..threads {
            let service = &service;
            let clock = &clock;
            let ops = &ops;
            s.spawn(move || {
                let pid = ProcessId::new(lane);
                let mut client = service.client(lane);
                let record = |inv: u64, op: PartialOp<u64>| {
                    let res = Some(clock.tick());
                    ops.lock().unwrap().push(WgOp { pid, inv, res, op });
                };
                for k in 0..ops_per_thread {
                    match k % 3 {
                        0 => {
                            // Single-writer lanes own their segment;
                            // multi-writer lanes scatter.
                            let word =
                                if single_writer { lane } else { (lane + k) % words };
                            let value = ((lane as u64) << 32) | (k as u64 + 1);
                            let inv = clock.tick();
                            client.update(word, value).expect("legal update");
                            record(inv, PartialOp::Update { word, value });
                        }
                        1 => {
                            // A wrapping two-segment window: sometimes one
                            // shard (coalesced range view), sometimes two
                            // (direct native collect or fallback).
                            let subset = {
                                let a = (lane + k) % words;
                                let b = (a + 1) % words;
                                let mut s = vec![a, b];
                                s.sort_unstable();
                                s.dedup();
                                s
                            };
                            let inv = clock.tick();
                            let view = client.scan_subset(&subset).expect("valid subset");
                            record(
                                inv,
                                PartialOp::ScanSubset {
                                    segments: view.segments().to_vec(),
                                    view: view.values().to_vec(),
                                },
                            );
                        }
                        _ => {
                            let inv = clock.tick();
                            let view = client.scan().expect("within budget");
                            record(inv, PartialOp::Scan { view: view.to_vec() });
                        }
                    }
                }
            });
        }
    });

    let mut ops = ops.into_inner().unwrap();
    ops.sort_by_key(|op| op.inv);
    check_partial_history(words, 0u64, single_writer, &ops)
}

#[test]
fn concurrent_partial_history_linearizes_on_the_unbounded_native_path() {
    for round in 0..4 {
        let verdict = run_partial_history(UnboundedSnapshot::new(3, 0u64), 9);
        assert!(
            matches!(verdict, WgResult::Linearizable { .. }),
            "round {round}: unbounded-native history rejected: {verdict:?}"
        );
    }
}

#[test]
fn concurrent_partial_history_linearizes_on_the_bounded_native_path() {
    for round in 0..4 {
        let verdict = run_partial_history(BoundedSnapshot::new(3, 0u64), 9);
        assert!(
            matches!(verdict, WgResult::Linearizable { .. }),
            "round {round}: bounded-native history rejected: {verdict:?}"
        );
    }
}

#[test]
fn concurrent_partial_history_linearizes_on_the_fallback_path() {
    for round in 0..4 {
        let verdict = run_partial_history(Opaque(BoundedSnapshot::new(3, 0u64)), 9);
        assert!(
            matches!(verdict, WgResult::Linearizable { .. }),
            "round {round}: fallback-path history rejected: {verdict:?}"
        );
    }
}

#[test]
fn concurrent_partial_history_linearizes_on_a_multiwriter_backing() {
    for round in 0..4 {
        let verdict = run_partial_history(MultiWriterSnapshot::new(3, 4, 0u64), 9);
        assert!(
            matches!(verdict, WgResult::Linearizable { .. }),
            "round {round}: multi-writer history rejected: {verdict:?}"
        );
    }
}
