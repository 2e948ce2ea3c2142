//! A miniature "snapshot server": many client threads hitting one
//! [`SnapshotService`] that fronts an unbounded atomic snapshot.
//!
//! The demo shows all three service features at once:
//!
//! * **scan coalescing** — a phase over a deliberately slow backing (a
//!   stand-in for an expensive substrate such as replicated registers)
//!   shows concurrent scans riding someone else's collect (watch
//!   `service.scan.coalesced` vs `service.scan.solo` in the metrics dump);
//! * **partial scans** — half the reads ask for a two-segment window via
//!   `scan_subset`, served natively at O(touched-segments) cost by the
//!   backing's subset scan (watch `service.partial.native` and the
//!   `service.partial.certified_ratio` gauge in the metrics dump);
//! * **admission control** — a second service over the same kind of
//!   object is configured with a deliberately tiny in-flight budget and
//!   rejects a request mid-flight with a typed `Overloaded` error the
//!   client handles by retrying.
//!
//! The run closes with the phase-1 service's per-op-class latency
//! quantiles (p50/p95/p99 upper bounds from its log₂-µs histograms) and
//! a peek at the causal trace the ring sink buffered.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example snapshot_server
//! ```

use std::sync::Arc;
use std::time::Duration;

use snapshot_core::{
    CoreError, RequestCtx, ScanStats, SnapshotView, TrySnapshotCore, UnboundedSnapshot,
};
use snapshot_obs::{Event, Registry, RingSink, Trace};
use snapshot_registers::ProcessId;
use snapshot_service::{ServiceConfig, ServiceError, SnapshotService};

/// A backing whose collects take a while — stands in for an expensive
/// substrate (a replicated ABD register, a huge segment count) where
/// coalescing pays. In-process collects are so fast that concurrent scans
/// rarely overlap; against this wrapper they always do.
struct SlowCore<C> {
    inner: C,
    collect_delay: Duration,
}

impl<V, C: TrySnapshotCore<V>> TrySnapshotCore<V> for SlowCore<C> {
    fn segments(&self) -> usize {
        self.inner.segments()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn single_writer(&self) -> bool {
        self.inner.single_writer()
    }

    fn try_scan(
        &self,
        lane: ProcessId,
        ctx: RequestCtx,
    ) -> Result<(SnapshotView<V>, ScanStats), CoreError> {
        std::thread::sleep(self.collect_delay);
        self.inner.try_scan(lane, ctx)
    }

    fn try_update(
        &self,
        lane: ProcessId,
        segment: usize,
        value: V,
        ctx: RequestCtx,
    ) -> Result<ScanStats, CoreError> {
        self.inner.try_update(lane, segment, value, ctx)
    }

    fn try_scan_subset(
        &self,
        lane: ProcessId,
        segments: &[usize],
        ctx: RequestCtx,
    ) -> Result<Option<(Vec<V>, ScanStats)>, CoreError> {
        self.inner.try_scan_subset(lane, segments, ctx)
    }
}

const SEGMENTS: usize = 8;
const OPS_PER_CLIENT: u64 = 2_000;

fn main() {
    let registry = Registry::new();
    let ring = Arc::new(RingSink::new(SEGMENTS, 4_096));
    let service = SnapshotService::with_config(
        UnboundedSnapshot::new(SEGMENTS, 0u64),
        ServiceConfig { shards: 4, max_inflight: 64, ..ServiceConfig::default() },
    )
    .with_registry(&registry)
    .with_trace(Trace::new(ring.clone()));

    println!("snapshot server: {SEGMENTS} segments, 4 shards, {SEGMENTS} clients");

    // Phase 1: concurrent updaters + scanners against one service.
    std::thread::scope(|s| {
        for lane in 0..SEGMENTS {
            let service = &service;
            s.spawn(move || {
                let mut client = service.client(lane);
                let mut checksum = 0u64;
                for k in 0..OPS_PER_CLIENT {
                    match k % 4 {
                        0 => client.update(lane, (lane as u64) << 32 | k).expect("own segment"),
                        1 | 2 => {
                            // Full scan: the coalescing path.
                            let view = client.scan().expect("within budget");
                            checksum = checksum.wrapping_add(view.iter().sum::<u64>());
                        }
                        _ => {
                            // Partial scan: my segment and my neighbour's.
                            let subset = [lane, (lane + 1) % SEGMENTS];
                            let view = client.scan_subset(&subset).expect("within budget");
                            checksum =
                                checksum.wrapping_add(view.values().iter().sum::<u64>());
                        }
                    }
                }
                std::hint::black_box(checksum);
            });
        }
    });

    // Phase 2: coalescing against an expensive backing. With each collect
    // pinned at 200µs, scans issued while one is in flight park and ride
    // the successor collect instead of running their own.
    let slow = SnapshotService::new(SlowCore {
        inner: UnboundedSnapshot::new(SEGMENTS, 0u64),
        collect_delay: Duration::from_micros(200),
    })
    .with_registry(&registry);
    let coalesced_before = registry.counter("service.scan.coalesced").get();
    std::thread::scope(|s| {
        for lane in 0..SEGMENTS {
            let slow = &slow;
            s.spawn(move || {
                let mut client = slow.client(lane);
                for _ in 0..50 {
                    client.scan().expect("within budget");
                }
            });
        }
    });
    let coalesced = registry.counter("service.scan.coalesced").get() - coalesced_before;
    println!(
        "slow-backing phase: {} of {} scans coalesced onto another scan's collect",
        coalesced,
        SEGMENTS * 50,
    );

    // Phase 3: backpressure. A budget of one means a scan issued while
    // another request holds the slot is rejected, not queued.
    let tiny = SnapshotService::with_config(
        UnboundedSnapshot::new(2, 0u64),
        ServiceConfig { max_inflight: 1, ..ServiceConfig::default() },
    )
    .with_registry(&registry);
    let rejected = std::sync::atomic::AtomicU32::new(0);
    std::thread::scope(|s| {
        for lane in 0..2 {
            let tiny = &tiny;
            let rejected = &rejected;
            s.spawn(move || {
                let mut client = tiny.client(lane);
                let mut local_rejections = 0u32;
                for k in 0..OPS_PER_CLIENT {
                    client.update(lane, k).ok();
                    loop {
                        match client.scan() {
                            Ok(_) => break,
                            Err(ServiceError::Overloaded { .. }) => {
                                local_rejections += 1;
                                std::thread::yield_now(); // back off, retry
                            }
                            Err(e) => panic!("unexpected service error: {e}"),
                        }
                    }
                }
                if lane == 0 {
                    rejected.store(local_rejections, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    let rejected = rejected.into_inner();
    println!(
        "backpressure demo: lane 0 was rejected {rejected} times by the budget-of-1 service\n"
    );

    println!("--- metrics ---");
    print!("{}", registry.render());

    // The service keeps log₂-µs latency histograms per op class; the
    // summaries give upper bounds on the quantiles.
    let latency = service.latency_summaries();
    println!("\n--- latency quantiles (phase 1 service) ---");
    println!("scan    : {}", latency.scan);
    println!("partial : {}", latency.partial);
    println!("update  : {}", latency.update);
    println!(
        "partial certified ratio: {} permille (served natively vs \
         projected-full fallbacks)",
        service.partial_certified_permille()
    );

    let events = ring.drain();
    let leads = events
        .iter()
        .filter(|e| matches!(e.event, Event::CoalesceLead { .. }))
        .count();
    let joins = events
        .iter()
        .filter(|e| matches!(e.event, Event::CoalesceJoin { .. }))
        .count();
    let partials = events
        .iter()
        .filter(|e| matches!(e.event, Event::PartialCollect { .. }))
        .count();
    println!("\n--- trace ({} events buffered) ---", events.len());
    println!("coalesce leads: {leads}, joins: {joins}, partial collects: {partials}");
    println!("first few events:");
    for event in events.iter().take(8) {
        println!("  {event}");
    }
}
