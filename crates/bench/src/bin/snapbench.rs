//! `snapbench` — the tracked benchmark suite behind `BENCH_*.json`.
//!
//! Runs a fixed matrix of workloads (`scan_heavy`, `update_heavy`,
//! `mixed`, the multi-writer-only `contended_mw`, the
//! service-routed `partial-scan-{s1,sq,sn,zipf}` family — subset sizes
//! 1, n/4 and n over rotating windows, plus a zipf-skewed two-segment
//! mix that hammers the hot segments the way real partial traffic
//! does — through `snapshot_service::SnapshotService` —
//! `abd-scan`, the service over an `AbdSnapshotCore` on a healthy
//! in-process replica network, `abd-scan-tcp`, the same stack over the
//! *real* wire transport against in-process `snapshotd` replicas on TCP
//! loopback (every quorum phase a framed socket round-trip, so the cell
//! prices syscalls and the wire codec against the simulator),
//! `abd-scan-tcp-durable`, the wire stack against replicas carrying
//! fsync-always CRC state logs (pricing crash-consistent durability on
//! the quorum write path), and
//! `degraded-shard`, the service over
//! a backing whose full collects blip in bursts so the windowed
//! breaker cycles trip → shed → probe → close while the bench
//! measures the typed-failure path) against the four
//! contention-relevant constructions (`unbounded`, `bounded`,
//! `multiwriter`, `locked`) at several thread counts, on real OS
//! threads with wall-clock timing.
//! Unlike the criterion micro-benchmarks in `benches/`, the output is a
//! stable machine-readable JSON report (schema `snapbench/v1`, see
//! `snapshot_bench::tracked`) meant to be committed and diffed:
//!
//! ```text
//! cargo run -p snapshot-bench --release --bin snapbench -- \
//!     --out BENCH_10.json
//! cargo run -p snapshot-bench --release --bin snapbench -- \
//!     --quick --compare BENCH_10.json --report-only
//! ```
//!
//! `--compare` exits with status 1 when any entry's median ns/op
//! regressed by more than `--threshold-pct` (default 20%) against the
//! baseline, unless `--report-only` is given. Usage errors exit 2.
//!
//! The `trend` subcommand runs no benchmarks at all: it loads every
//! committed `BENCH_<n>.json` generation from `--dir` (default `.`),
//! renders a per-benchmark markdown trend table (`snapshot_bench::trend`),
//! and exits 1 only on *monotone multi-generation* decay — a
//! strictly-increasing ns/op run across ≥ 3 generations totalling more
//! than `--threshold-pct` (default 25%) — unless `--report-only`:
//!
//! ```text
//! cargo run -p snapshot-bench --release --bin snapbench -- \
//!     trend --dir . --report-only --out TREND.md
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use snapshot_abd::{AbdSnapshotCore, Network, NetworkConfig, RemoteConfig, RemoteTransport, Transport};
use snapshot_bench::scripted::ScanHook;
use snapshot_bench::tracked::{self, BenchEntry, BenchReport};
use snapshot_bench::trend;
use snapshot_core::{
    BoundedSnapshot, CoreError, LockSnapshot, MultiWriterSnapshot, MwSnapshot, MwSnapshotHandle,
    SwSnapshot, SwSnapshotHandle, TrySnapshotCore, UnboundedSnapshot,
};
use snapshot_registers::ProcessId;
use snapshot_service::{HealthConfig, RetryConfig, ServiceConfig, ServiceError, SnapshotService};
use snapshot_wire::{Endpoint, FsyncPolicy, ReplicaServer, ReplicaStore, ServerConfig};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// 7 scans per update: the shape that rewards the clone-free
    /// incremental collect.
    ScanHeavy,
    /// 7 updates per scan: stresses the embedded scan inside update.
    UpdateHeavy,
    /// Alternating update/scan.
    Mixed,
    /// Multi-writer only: every thread hammers the same two words.
    ContendedMw,
    /// Service-routed: alternating update / `scan_subset` of 1 segment.
    PartialScanS1,
    /// Service-routed: subsets of n/4 segments.
    PartialScanSq,
    /// Service-routed: subsets covering all n segments (the coalesced
    /// full-scan path in service clothing).
    PartialScanSn,
    /// Service-routed: two-segment subsets whose segments are drawn from
    /// a zipf(s = 1) distribution over segment ids — the skewed shape of
    /// real partial traffic, where a few hot segments absorb most reads.
    /// Native O(touched) subset scans keep the hot path off the full
    /// collect; version-filter contention on the hot segments is the
    /// interesting cost.
    PartialScanZipf,
    /// Service over `AbdSnapshotCore` on a healthy in-process replica
    /// network: alternating update / full scan, every register access a
    /// pair of quorum phases. Runs only against `unbounded` (the
    /// construction `AbdSnapshotCore` executes) with reduced iteration
    /// counts — message-passing ops are orders of magnitude slower.
    AbdScan,
    /// The same service-over-`AbdSnapshotCore` shape, but over the real
    /// wire transport: three in-process `snapshotd` replicas on TCP
    /// loopback, every quorum phase a framed socket round-trip. The
    /// delta against `abd-scan` prices the wire codec, syscalls, and
    /// the connection managers; unbounded-only, heavily reduced
    /// iteration counts.
    AbdScanTcp,
    /// The wire workload again, but against *durable* replicas: each
    /// `snapshotd` carries a CRC-framed state log with `fsync always`,
    /// so every winning store pays a full fsync before acking. The
    /// delta against `abd-scan-tcp` prices crash-consistent durability
    /// on the quorum write path; unbounded-only, minimal iterations.
    AbdScanTcpDurable,
    /// Service over a backing whose full collects fail in periodic
    /// bursts: the windowed breaker cycles trip → shed → probe → close
    /// under load, so the cell times the *typed-failure* path — retry
    /// budgets, `Degraded` shedding at the gate, and half-open
    /// recovery — rather than the happy path. Runs only against
    /// `unbounded`.
    DegradedShard,
}

impl Workload {
    const ALL: [Workload; 12] = [
        Workload::ScanHeavy,
        Workload::UpdateHeavy,
        Workload::Mixed,
        Workload::ContendedMw,
        Workload::PartialScanS1,
        Workload::PartialScanSq,
        Workload::PartialScanSn,
        Workload::PartialScanZipf,
        Workload::AbdScan,
        Workload::AbdScanTcp,
        Workload::AbdScanTcpDurable,
        Workload::DegradedShard,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ScanHeavy => "scan_heavy",
            Workload::UpdateHeavy => "update_heavy",
            Workload::Mixed => "mixed",
            Workload::ContendedMw => "contended_mw",
            Workload::PartialScanS1 => "partial-scan-s1",
            Workload::PartialScanSq => "partial-scan-sq",
            Workload::PartialScanSn => "partial-scan-sn",
            Workload::PartialScanZipf => "partial-scan-zipf",
            Workload::AbdScan => "abd-scan",
            Workload::AbdScanTcp => "abd-scan-tcp",
            Workload::AbdScanTcpDurable => "abd-scan-tcp-durable",
            Workload::DegradedShard => "degraded-shard",
        }
    }

    /// Whether the `k`-th operation of a thread is an update.
    fn is_update(self, k: u64) -> bool {
        match self {
            Workload::ScanHeavy => k % 8 == 0,
            Workload::UpdateHeavy => k % 8 != 0,
            Workload::Mixed => k % 2 == 0,
            Workload::ContendedMw => k % 2 == 0,
            Workload::PartialScanS1
            | Workload::PartialScanSq
            | Workload::PartialScanSn
            | Workload::PartialScanZipf => k % 2 == 0,
            Workload::AbdScan
            | Workload::AbdScanTcp
            | Workload::AbdScanTcpDurable
            | Workload::DegradedShard => k % 2 == 0,
        }
    }

    /// Per-thread iteration divisor: quorum-phase workloads are orders
    /// of magnitude slower per op, so they run a slice of the budget.
    fn iters_divisor(self) -> u64 {
        match self {
            Workload::AbdScan => 20,
            Workload::AbdScanTcp => 40,
            Workload::AbdScanTcpDurable => 80,
            Workload::DegradedShard => 4,
            _ => 1,
        }
    }

    /// Subset size for the service-routed partial-scan workloads, given
    /// `n` segments; `None` for the direct-handle workloads.
    fn subset_len(self, n: usize) -> Option<usize> {
        match self {
            Workload::PartialScanS1 => Some(1),
            Workload::PartialScanSq => Some((n / 4).max(1)),
            Workload::PartialScanSn => Some(n),
            Workload::PartialScanZipf => Some(2.min(n)),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Construction {
    Unbounded,
    Bounded,
    MultiWriter,
    Locked,
}

impl Construction {
    const ALL: [Construction; 4] = [
        Construction::Unbounded,
        Construction::Bounded,
        Construction::MultiWriter,
        Construction::Locked,
    ];

    fn name(self) -> &'static str {
        match self {
            Construction::Unbounded => "unbounded",
            Construction::Bounded => "bounded",
            Construction::MultiWriter => "multiwriter",
            Construction::Locked => "locked",
        }
    }
}

/// One cell of the benchmark matrix.
struct Config {
    workload: Workload,
    construction: Construction,
    threads: usize,
}

impl Config {
    fn name(&self) -> String {
        format!(
            "{}/{}/t{}",
            self.workload.name(),
            self.construction.name(),
            self.threads
        )
    }
}

/// Suite knobs; `--quick` shrinks everything for CI smoke runs.
struct Tuning {
    iters_per_thread: u64,
    samples: u32,
    warmup: u32,
    thread_counts: &'static [usize],
}

const FULL: Tuning = Tuning {
    iters_per_thread: 4_000,
    samples: 5,
    warmup: 1,
    thread_counts: &[1, 2, 4],
};

const QUICK: Tuning = Tuning {
    iters_per_thread: 300,
    samples: 2,
    warmup: 1,
    thread_counts: &[1, 2],
};

fn suite(tuning: &Tuning) -> Vec<Config> {
    let mut configs = Vec::new();
    for workload in Workload::ALL {
        for construction in Construction::ALL {
            // The contended workload writes arbitrary words, which only
            // the multi-writer construction supports.
            if workload == Workload::ContendedMw && construction != Construction::MultiWriter {
                continue;
            }
            // The abd workload always runs Figure 2 over ABD lanes, and
            // the degraded-shard workload wraps the same construction in
            // a fault injector — both are unbounded-only.
            if matches!(
                workload,
                Workload::AbdScan
                    | Workload::AbdScanTcp
                    | Workload::AbdScanTcpDurable
                    | Workload::DegradedShard
            ) && construction != Construction::Unbounded
            {
                continue;
            }
            for &threads in tuning.thread_counts {
                // Contention needs at least two threads to mean anything.
                if workload == Workload::ContendedMw && threads < 2 {
                    continue;
                }
                configs.push(Config {
                    workload,
                    construction,
                    threads,
                });
            }
        }
    }
    configs
}

/// Times one sample of a single-writer-style workload: every thread runs
/// `iters` operations against its own handle; returns total wall ns.
fn time_sw<O: SwSnapshot<u64>>(object: &O, threads: usize, iters: u64, workload: Workload) -> u128 {
    let barrier = Barrier::new(threads + 1);
    let mut elapsed = 0u128;
    std::thread::scope(|s| {
        for i in 0..threads {
            let barrier = &barrier;
            s.spawn(move || {
                let mut handle = object.handle(ProcessId::new(i));
                barrier.wait();
                let mut acc = 0u64;
                for k in 0..iters {
                    if workload.is_update(k) {
                        handle.update(((i as u64) << 32) | k);
                    } else {
                        acc = acc.wrapping_add(handle.scan().as_slice().iter().sum::<u64>());
                    }
                }
                std::hint::black_box(acc);
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        elapsed = start.elapsed().as_nanos();
    });
    elapsed
}

/// Multi-writer analogue of [`time_sw`]. In the disjoint workloads each
/// thread owns word `i`; under [`Workload::ContendedMw`] all threads
/// scatter writes over the whole (small) word array.
fn time_mw<O: MwSnapshot<u64>>(object: &O, threads: usize, iters: u64, workload: Workload) -> u128 {
    let words = object.words();
    let barrier = Barrier::new(threads + 1);
    let mut elapsed = 0u128;
    std::thread::scope(|s| {
        for i in 0..threads {
            let barrier = &barrier;
            s.spawn(move || {
                let mut handle = object.handle(ProcessId::new(i));
                barrier.wait();
                let mut acc = 0u64;
                for k in 0..iters {
                    if workload.is_update(k) {
                        let word = if workload == Workload::ContendedMw {
                            // Cheap multiplicative scatter, deterministic
                            // per (thread, op).
                            (k.wrapping_add(i as u64).wrapping_mul(2_654_435_761) as usize) % words
                        } else {
                            i
                        };
                        handle.update(word, ((i as u64) << 32) | k);
                    } else {
                        acc = acc.wrapping_add(handle.scan().as_slice().iter().sum::<u64>());
                    }
                }
                std::hint::black_box(acc);
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        elapsed = start.elapsed().as_nanos();
    });
    elapsed
}

/// Deterministic xorshift64 generator — the bench runs offline with no
/// `rand` dependency, and reproducible subsets matter more than quality.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Cumulative zipf(s = 1) distribution over `n` segment ranks: segment 0
/// is the hottest, with weight 1/(r + 1) for rank r.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..n).map(|r| 1.0 / (r as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    weights
}

/// Draws one segment from the zipf CDF using 53 bits of `raw`.
fn zipf_sample(cdf: &[f64], raw: u64) -> usize {
    let u = (raw >> 11) as f64 / (1u64 << 53) as f64;
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// Times one sample of a service-routed partial-scan workload: every
/// thread claims a service client and alternates updates (its own lane's
/// segment — legal on every backing) with `scan_subset` over either a
/// rotating window of `subset_len` segments or (under
/// [`Workload::PartialScanZipf`]) `subset_len` distinct zipf-skewed
/// segments, exercising native subset scans, shard coalescing, and the
/// projected-full-scan fallback depending on the backing construction.
fn time_service<C: TrySnapshotCore<u64>>(
    core: C,
    threads: usize,
    iters: u64,
    subset_len: usize,
    workload: Workload,
) -> u128 {
    let service = SnapshotService::new(core);
    let n = service.segments();
    let cdf = zipf_cdf(n);
    let barrier = Barrier::new(threads + 1);
    let mut elapsed = 0u128;
    std::thread::scope(|s| {
        for i in 0..threads {
            let barrier = &barrier;
            let service = &service;
            let cdf = &cdf;
            s.spawn(move || {
                let mut client = service.client(i);
                let mut rng =
                    XorShift::new(0x5EED ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
                barrier.wait();
                let mut acc = 0u64;
                let mut subset = Vec::with_capacity(subset_len);
                for k in 0..iters {
                    if k % 2 == 0 {
                        client.update(i, ((i as u64) << 32) | k).expect("in budget");
                    } else {
                        subset.clear();
                        if workload == Workload::PartialScanZipf {
                            // Skewed draws, deterministic per thread; cap
                            // the rejection loop and fill from neighbours
                            // so small n always reaches subset_len.
                            for _ in 0..16 {
                                if subset.len() == subset_len {
                                    break;
                                }
                                let seg = zipf_sample(cdf, rng.next());
                                if !subset.contains(&seg) {
                                    subset.push(seg);
                                }
                            }
                            while subset.len() < subset_len {
                                let fill = (subset.last().copied().unwrap_or(0) + 1) % n;
                                if subset.contains(&fill) {
                                    break;
                                }
                                subset.push(fill);
                            }
                        } else {
                            // Rotating window start, deterministic per
                            // (thread, op); wrapping windows span shards.
                            let start = (k.wrapping_add(i as u64).wrapping_mul(2_654_435_761)
                                as usize)
                                % n;
                            for j in 0..subset_len {
                                subset.push((start + j) % n);
                            }
                        }
                        let view = client.scan_subset(&subset).expect("valid subset");
                        acc = acc.wrapping_add(view.values().iter().sum::<u64>());
                    }
                }
                std::hint::black_box(acc);
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        elapsed = start.elapsed().as_nanos();
    });
    elapsed
}

/// Times one sample of the `abd-scan` workload: the service fronts an
/// `AbdSnapshotCore` whose every register access is a pair of quorum
/// phases over a healthy in-process 3-replica network. Full scans (the
/// coalesced path) alternate with single-writer updates; on a healthy
/// network every fallible operation must succeed.
fn time_abd(threads: usize, iters: u64) -> u128 {
    let network = Arc::new(Network::with_config(NetworkConfig::new(3)));
    let service = SnapshotService::new(AbdSnapshotCore::new(&network, threads, 0u64));
    let barrier = Barrier::new(threads + 1);
    let mut elapsed = 0u128;
    std::thread::scope(|s| {
        for i in 0..threads {
            let barrier = &barrier;
            let service = &service;
            s.spawn(move || {
                let mut client = service.client(i);
                barrier.wait();
                let mut acc = 0u64;
                for k in 0..iters {
                    if k % 2 == 0 {
                        client
                            .update(i, ((i as u64) << 32) | k)
                            .expect("healthy network");
                    } else {
                        let view = client.scan().expect("healthy network");
                        acc = acc.wrapping_add(view.iter().sum::<u64>());
                    }
                }
                std::hint::black_box(acc);
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        elapsed = start.elapsed().as_nanos();
    });
    elapsed
}

/// Times one sample of the `abd-scan-tcp` workload: the same shape as
/// [`time_abd`], but the quorum phases travel the real wire — three
/// in-process `snapshotd` replicas on TCP loopback behind a
/// `RemoteTransport`. Cluster setup (listeners, dials, handshakes) is
/// excluded from the timed region; on healthy loopback every operation
/// must succeed.
fn time_abd_tcp(threads: usize, iters: u64) -> u128 {
    let servers: Vec<ReplicaServer> = (0..3)
        .map(|i| {
            ReplicaServer::spawn(ServerConfig::new(
                Endpoint::parse("tcp:127.0.0.1:0").expect("loopback endpoint"),
                i as u32,
            ))
            .expect("spawning loopback replica")
        })
        .collect();
    let endpoints = servers.iter().map(|s| s.endpoint().clone()).collect();
    let transport: Arc<dyn Transport> =
        Arc::new(RemoteTransport::connect(RemoteConfig::new(endpoints)));
    let service = SnapshotService::new(AbdSnapshotCore::remote(transport, threads, 0u64));
    let barrier = Barrier::new(threads + 1);
    let mut elapsed = 0u128;
    std::thread::scope(|s| {
        for i in 0..threads {
            let barrier = &barrier;
            let service = &service;
            s.spawn(move || {
                let mut client = service.client(i);
                barrier.wait();
                let mut acc = 0u64;
                for k in 0..iters {
                    if k % 2 == 0 {
                        client
                            .update(i, ((i as u64) << 32) | k)
                            .expect("healthy loopback cluster");
                    } else {
                        let view = client.scan().expect("healthy loopback cluster");
                        acc = acc.wrapping_add(view.iter().sum::<u64>());
                    }
                }
                std::hint::black_box(acc);
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        elapsed = start.elapsed().as_nanos();
    });
    drop(service);
    drop(servers);
    elapsed
}

/// Times one sample of the `abd-scan-tcp-durable` workload: the same
/// wire-backed cluster as [`time_abd_tcp`] but over Unix-domain sockets
/// with a CRC-framed state log per replica under `fsync always` — every
/// winning store fsyncs before its ack, so the cell prices the full
/// crash-consistent write path. Cluster setup and state-file cleanup
/// are excluded from the timed region.
fn time_abd_tcp_durable(threads: usize, iters: u64) -> u128 {
    static SAMPLE: AtomicU64 = AtomicU64::new(0);
    let sample = SAMPLE.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let mut state_logs = Vec::new();
    let servers: Vec<ReplicaServer> = (0..3)
        .map(|i| {
            let sock = std::env::temp_dir().join(format!("snapbench-dur-{pid}-{sample}-{i}.sock"));
            let _ = std::fs::remove_file(&sock);
            let log = std::env::temp_dir().join(format!("snapbench-dur-{pid}-{sample}-{i}.log"));
            let _ = std::fs::remove_file(&log);
            let _ = std::fs::remove_file(ReplicaStore::checkpoint_path_for(&log));
            state_logs.push(log.clone());
            ReplicaServer::spawn(
                ServerConfig::new(Endpoint::Uds(sock), i as u32)
                    .with_state_log(log)
                    .with_fsync(FsyncPolicy::Always),
            )
            .expect("spawning durable replica")
        })
        .collect();
    let endpoints = servers.iter().map(|s| s.endpoint().clone()).collect();
    let transport: Arc<dyn Transport> =
        Arc::new(RemoteTransport::connect(RemoteConfig::new(endpoints)));
    let service = SnapshotService::new(AbdSnapshotCore::remote(transport, threads, 0u64));
    let barrier = Barrier::new(threads + 1);
    let mut elapsed = 0u128;
    std::thread::scope(|s| {
        for i in 0..threads {
            let barrier = &barrier;
            let service = &service;
            s.spawn(move || {
                let mut client = service.client(i);
                barrier.wait();
                let mut acc = 0u64;
                for k in 0..iters {
                    if k % 2 == 0 {
                        client
                            .update(i, ((i as u64) << 32) | k)
                            .expect("healthy durable cluster");
                    } else {
                        let view = client.scan().expect("healthy durable cluster");
                        acc = acc.wrapping_add(view.iter().sum::<u64>());
                    }
                }
                std::hint::black_box(acc);
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        elapsed = start.elapsed().as_nanos();
    });
    drop(service);
    drop(servers);
    for log in state_logs {
        let _ = std::fs::remove_file(ReplicaStore::checkpoint_path_for(&log));
        let _ = std::fs::remove_file(log);
    }
    elapsed
}

/// An `UnboundedSnapshot` whose full collects fail in periodic bursts
/// (2 of every 8 scans err `Unavailable`, counted globally): enough
/// sustained error rate to trip the service's windowed breaker, with
/// enough successes in between for the half-open ramp to close it
/// again. Updates and native subset scans stay healthy, so single-shard
/// partials and health probes always succeed — the shape of a shard
/// that is degrading, not dead.
fn bursty_core(lanes: usize) -> impl TrySnapshotCore<u64> {
    let scans = AtomicU64::new(0);
    ScanHook::new(UnboundedSnapshot::new(lanes, 0u64), move |inner, lane, ctx| {
        if scans.fetch_add(1, Ordering::Relaxed) % 8 < 2 {
            return Err(CoreError::Unavailable { reason: "injected collect blip".into() });
        }
        inner.try_scan(lane, ctx)
    })
}

/// Times one sample of the `degraded-shard` workload: the service fronts
/// a [`bursty_core`] with a fast-cycling breaker (short cooldown, short
/// ramp interval), and every thread alternates updates with full scans.
/// Scans answered with `Backend`, `Degraded`, or a view all count as one
/// completed operation — the point of the cell is the cost of the
/// *failure* path (retry budget, gate shed, half-open probe), and a
/// panic or a hang is the only wrong answer.
fn time_degraded(threads: usize, iters: u64) -> u128 {
    let service = SnapshotService::with_config(
        bursty_core(threads),
        ServiceConfig {
            retry: RetryConfig { max_attempts: 2, ..RetryConfig::default() },
            health: HealthConfig {
                window: 16,
                trip_error_pct: 25,
                min_volume: 4,
                cooldown: Duration::from_micros(500),
                ramp_successes: 2,
                ramp_tokens: 8,
                ramp_interval: Duration::from_micros(100),
                jitter_pct: 25,
            },
            ..ServiceConfig::default()
        },
    );
    let barrier = Barrier::new(threads + 1);
    let mut elapsed = 0u128;
    std::thread::scope(|s| {
        for i in 0..threads {
            let barrier = &barrier;
            let service = &service;
            s.spawn(move || {
                let mut client = service.client(i);
                barrier.wait();
                let mut acc = 0u64;
                let mut shed = 0u64;
                for k in 0..iters {
                    let outcome = if k % 2 == 0 {
                        // Bulk updates are the last class the half-open
                        // ramp readmits, so they shed too while the
                        // breaker recovers.
                        client.update(i, ((i as u64) << 32) | k).map(|()| 0)
                    } else {
                        client.scan().map(|view| view.iter().sum::<u64>())
                    };
                    match outcome {
                        Ok(sum) => acc = acc.wrapping_add(sum),
                        Err(ServiceError::Backend { .. }) => {}
                        Err(ServiceError::Degraded { .. }) => shed += 1,
                        Err(other) => panic!("unexpected service error: {other:?}"),
                    }
                }
                std::hint::black_box((acc, shed));
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        elapsed = start.elapsed().as_nanos();
    });
    elapsed
}

/// Runs one matrix cell: warmups, then `samples` timed runs; returns the
/// finished entry. A fresh object is built per sample so handle claims
/// and cache state never leak between samples.
fn run_config(config: &Config, tuning: &Tuning) -> BenchEntry {
    let threads = config.threads;
    let iters = (tuning.iters_per_thread / config.workload.iters_divisor()).max(2);
    let total_ops = threads as u64 * iters;
    let mut ns_per_op = Vec::with_capacity(tuning.samples as usize);

    for round in 0..tuning.warmup + tuning.samples {
        let elapsed = if config.workload == Workload::AbdScan {
            time_abd(threads, iters)
        } else if config.workload == Workload::AbdScanTcp {
            time_abd_tcp(threads, iters)
        } else if config.workload == Workload::AbdScanTcpDurable {
            time_abd_tcp_durable(threads, iters)
        } else if config.workload == Workload::DegradedShard {
            time_degraded(threads, iters)
        } else if let Some(subset_len) = config.workload.subset_len(threads) {
            let workload = config.workload;
            match config.construction {
                Construction::Unbounded => time_service(
                    UnboundedSnapshot::new(threads, 0u64),
                    threads,
                    iters,
                    subset_len,
                    workload,
                ),
                Construction::Bounded => time_service(
                    BoundedSnapshot::new(threads, 0u64),
                    threads,
                    iters,
                    subset_len,
                    workload,
                ),
                Construction::Locked => time_service(
                    LockSnapshot::new(threads, 0u64),
                    threads,
                    iters,
                    subset_len,
                    workload,
                ),
                Construction::MultiWriter => time_service(
                    MultiWriterSnapshot::new(threads, threads, 0u64),
                    threads,
                    iters,
                    subset_len,
                    workload,
                ),
            }
        } else {
            match config.construction {
                Construction::Unbounded => {
                    let object = UnboundedSnapshot::new(threads, 0u64);
                    time_sw(&object, threads, iters, config.workload)
                }
                Construction::Bounded => {
                    let object = BoundedSnapshot::new(threads, 0u64);
                    time_sw(&object, threads, iters, config.workload)
                }
                Construction::Locked => {
                    let object = LockSnapshot::new(threads, 0u64);
                    time_sw(&object, threads, iters, config.workload)
                }
                Construction::MultiWriter => {
                    // Two words under contention (maximal collisions);
                    // otherwise one word per thread.
                    let words = if config.workload == Workload::ContendedMw {
                        2
                    } else {
                        threads
                    };
                    let object = MultiWriterSnapshot::new(threads, words, 0u64);
                    time_mw(&object, threads, iters, config.workload)
                }
            }
        };
        if round >= tuning.warmup {
            ns_per_op.push(elapsed as f64 / total_ops as f64);
        }
    }

    ns_per_op.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let median = ns_per_op[ns_per_op.len() / 2];
    BenchEntry {
        name: config.name(),
        workload: config.workload.name().to_string(),
        construction: config.construction.name().to_string(),
        threads,
        iters_per_thread: iters,
        samples: tuning.samples,
        warmup: tuning.warmup,
        total_ops,
        median_ns_per_op: median,
        min_ns_per_op: ns_per_op[0],
        max_ns_per_op: ns_per_op[ns_per_op.len() - 1],
    }
}

struct Args {
    quick: bool,
    out: String,
    compare: Option<String>,
    threshold_pct: f64,
    report_only: bool,
    filter: Option<String>,
    list: bool,
}

const USAGE: &str = "usage: snapbench [--quick] [--out PATH] [--compare BASELINE.json]\n\
                     \x20                [--threshold-pct N] [--report-only] [--filter SUBSTR] [--list]\n\
                     \x20      snapbench trend [--dir PATH] [--threshold-pct N] [--report-only] [--out PATH]";

/// Flags of the `trend` subcommand.
struct TrendArgs {
    dir: String,
    threshold_pct: f64,
    report_only: bool,
    out: Option<String>,
}

fn parse_trend_args(mut it: impl Iterator<Item = String>) -> Result<TrendArgs, String> {
    let mut args = TrendArgs {
        dir: ".".to_string(),
        threshold_pct: 25.0,
        report_only: false,
        out: None,
    };
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--dir" => args.dir = value_of("--dir")?,
            "--threshold-pct" => {
                args.threshold_pct = value_of("--threshold-pct")?
                    .parse()
                    .map_err(|_| "--threshold-pct needs a number".to_string())?;
            }
            "--report-only" => args.report_only = true,
            "--out" => args.out = Some(value_of("--out")?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// The `trend` subcommand: load every committed generation, render the
/// barometer, gate on monotone decay.
fn run_trend(args: TrendArgs) -> ExitCode {
    let mut generations: Vec<(u32, String)> = Vec::new();
    let dir_entries = match std::fs::read_dir(&args.dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("snapbench trend: cannot read {}: {e}", args.dir);
            return ExitCode::from(2);
        }
    };
    for entry in dir_entries.flatten() {
        let file_name = entry.file_name();
        let Some(name) = file_name.to_str() else { continue };
        if let Some(generation) = trend::generation_of(name) {
            generations.push((generation, entry.path().display().to_string()));
        }
    }
    generations.sort_by_key(|(g, _)| *g);
    if generations.len() < 2 {
        eprintln!(
            "snapbench trend: need at least 2 BENCH_<n>.json generations in {}, found {}",
            args.dir,
            generations.len()
        );
        return ExitCode::from(2);
    }

    let mut reports = Vec::with_capacity(generations.len());
    for (generation, path) in &generations {
        let report = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| BenchReport::from_json(&text).map_err(|e| e.to_string()))
        {
            Ok(report) => report,
            Err(e) => {
                eprintln!("snapbench trend: cannot load {path}: {e}");
                return ExitCode::from(2);
            }
        };
        reports.push((*generation, report));
    }

    let barometer = trend::build(&reports, args.threshold_pct);
    let markdown = barometer.render_markdown();
    print!("{markdown}");
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, &markdown) {
            eprintln!("snapbench trend: cannot write {out}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("wrote {out}");
    }
    if barometer.has_decay() {
        if args.report_only {
            println!("monotone decay detected (report-only: not failing)");
        } else {
            println!("monotone decay beyond {}% detected", args.threshold_pct);
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: "BENCH_10.json".to_string(),
        compare: None,
        threshold_pct: 20.0,
        report_only: false,
        filter: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = value_of("--out")?,
            "--compare" => args.compare = Some(value_of("--compare")?),
            "--threshold-pct" => {
                args.threshold_pct = value_of("--threshold-pct")?
                    .parse()
                    .map_err(|_| "--threshold-pct needs a number".to_string())?;
            }
            "--report-only" => args.report_only = true,
            "--filter" => args.filter = Some(value_of("--filter")?),
            "--list" => args.list = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("trend") {
        return match parse_trend_args(std::env::args().skip(2)) {
            Ok(args) => run_trend(args),
            Err(msg) => {
                eprintln!("snapbench trend: {msg}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("snapbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let tuning = if args.quick { &QUICK } else { &FULL };
    let mut configs = suite(tuning);
    if let Some(filter) = &args.filter {
        configs.retain(|c| c.name().contains(filter.as_str()));
    }
    if configs.is_empty() {
        eprintln!("snapbench: no benchmarks match the filter\n{USAGE}");
        return ExitCode::from(2);
    }
    if args.list {
        for config in &configs {
            println!("{}", config.name());
        }
        return ExitCode::SUCCESS;
    }

    let mut report = BenchReport::new();
    for (i, config) in configs.iter().enumerate() {
        eprint!("[{:>2}/{}] {:<32} ", i + 1, configs.len(), config.name());
        let entry = run_config(config, tuning);
        eprintln!(
            "median {:>10.1} ns/op  (min {:.1}, max {:.1})",
            entry.median_ns_per_op, entry.min_ns_per_op, entry.max_ns_per_op
        );
        report.entries.push(entry);
    }

    if let Err(e) = std::fs::write(&args.out, report.to_json()) {
        eprintln!("snapbench: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    eprintln!("wrote {} ({} entries)", args.out, report.entries.len());

    if let Some(baseline_path) = &args.compare {
        let baseline = match std::fs::read_to_string(baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|text| BenchReport::from_json(&text).map_err(|e| e.to_string()))
        {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("snapbench: cannot load baseline {baseline_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let cmp = tracked::compare(&baseline, &report, args.threshold_pct);
        print!("{}", cmp.render());
        if cmp.has_regressions() {
            if args.report_only {
                println!(
                    "regressions beyond {}% detected (report-only: not failing)",
                    args.threshold_pct
                );
            } else {
                println!("regressions beyond {}% detected", args.threshold_pct);
                return ExitCode::from(1);
            }
        } else {
            println!("no regressions beyond {}%", args.threshold_pct);
        }
    }
    ExitCode::SUCCESS
}
