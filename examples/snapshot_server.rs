//! A miniature "snapshot server": many client threads hitting one
//! [`SnapshotService`] that fronts an unbounded atomic snapshot.
//!
//! The demo shows the service's features at once:
//!
//! * **full scans** — every scan runs its own collect, so no client ever
//!   waits for another (watch `service.scan.solo` in the metrics dump);
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

use snapshot_core::UnboundedSnapshot;
use snapshot_obs::{Event, Registry, RingSink, Trace};
use snapshot_service::{ServiceConfig, ServiceError, SnapshotService};

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
                            // Full scan: a collect of its own.
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

    // Phase 2: backpressure. A budget of one means a scan issued while
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
    let partials = events
        .iter()
        .filter(|e| matches!(e.event, Event::PartialCollect { .. }))
        .count();
    println!("\n--- trace ({} events buffered) ---", events.len());
    println!("partial collects: {partials}");
    println!("first few events:");
    for event in events.iter().take(8) {
        println!("  {event}");
    }
}
