//! The seven stacks under test, built only through the crates' public
//! constructors and with their default configurations.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use snapshot_abd::{
    AbdRegister, AbdSnapshotCore, Network, NetworkConfig, RegisterId, RemoteConfig,
    RemoteTransport, Transport,
};
use snapshot_core::{
    MultiWriterHandle, MultiWriterSnapshot, MwSnapshot, MwSnapshotHandle, SnapshotView, SwSnapshot,
    SwSnapshotHandle, TrySnapshotCore, UnboundedHandle, UnboundedSnapshot,
};
use snapshot_obs::{MetricValue, Registry, Trace};
use snapshot_registers::{EpochBackend, ProcessId};
use snapshot_service::{PartialView, ServiceClient, SnapshotService};
use snapshot_wire::{Endpoint, FsyncPolicy, ReplicaServer, ServerConfig};

use crate::check::{MwChecker, SwChecker, View, Violation};
use crate::drive::{Checker, CoreStats, Lane};
use crate::gen::value;
use crate::{REPLICAS, SEGMENTS};

/// Log size at which a `wire-durable` replica checkpoints: small enough
/// that several checkpoints cycle inside one run.
pub const CHECKPOINT_BYTES: u64 = 64 << 10;

/// Wire lane of the probes' standalone register (the snapshot object
/// addresses lanes `0..8`).
const PROBE_LANE: u32 = 1000;

/// Named counter readings (histograms contribute their sample count).
pub type Counters = BTreeMap<String, f64>;

/// Adds `registry`'s current readings into `into`, summing same-named
/// metrics (the three replicas report under the same names).
pub fn read_registry(registry: &Registry, into: &mut Counters) {
    for (name, v) in registry.snapshot() {
        let x = match v {
            MetricValue::Counter(c) => c as f64,
            MetricValue::Gauge(g) => g as f64,
            MetricValue::Histogram(h) => h.count() as f64,
        };
        *into.entry(name).or_insert(0.0) += x;
    }
}

/// One reading by name (absent = 0).
pub fn reading(counters: &Counters, name: &str) -> f64 {
    counters.get(name).copied().unwrap_or(0.0)
}

/// What every metric in `after` gained since `before`.
pub fn since(after: &Counters, before: &Counters) -> Counters {
    after
        .iter()
        .map(|(name, v)| (name.clone(), v - reading(before, name)))
        .collect()
}

/// A stack the two clients can be pointed at.
pub trait Stack: Sync + Sized {
    /// The per-client handle.
    type Lane<'a>: Lane
    where
        Self: 'a;

    /// Claims client `client`'s handle. `with_stats` makes a `mem-*` lane
    /// use the `*_with_stats` entry points and accumulate what they
    /// report.
    fn lane(&self, client: usize, with_stats: bool) -> Self::Lane<'_>;

    /// Writes every segment (word) once, each through its own lane, and
    /// returns the checker and first free seq for each client. (An ABD
    /// register still at its initial value skips the write-back phase,
    /// which would make scans cheaper than steady state.)
    fn seed(&self) -> Result<[(Checker, u64); 2], String>;

    /// Called between warm-up and the first timed op.
    fn after_warm_up(&self) {}

    /// Current readings of every registry in the stack.
    fn counters(&self) -> Counters {
        Counters::new()
    }

    /// Shuts the stack down, joining every thread it started, and runs
    /// the checks that need it stopped. `acked[j]` is the last value
    /// acknowledged to segment `j`'s writer.
    fn tear_down(self, _acked: Option<&View>) -> Result<(), Violation> {
        Ok(())
    }
}

fn sw_seed(
    mut write: impl FnMut(usize, u64) -> Result<(), String>,
) -> Result<[(Checker, u64); 2], String> {
    let mut init: View = [0; SEGMENTS];
    for (lane, slot) in init.iter_mut().enumerate() {
        *slot = value(lane + 1, 1);
        write(lane, *slot)?;
    }
    Ok([0, 1].map(|c| (Checker::Sw(SwChecker::new(c, init)), 1)))
}

// ---------------------------------------------------------------------
// mem-scan
// ---------------------------------------------------------------------

/// `mem-scan`: the Figure 2 object, direct handles.
#[derive(Debug)]
pub struct MemScan {
    obj: UnboundedSnapshot<u64>,
}

impl MemScan {
    /// A fresh 8-segment object.
    pub fn build() -> Self {
        MemScan {
            obj: UnboundedSnapshot::new(SEGMENTS, 0u64),
        }
    }
}

/// A `mem-scan` client.
#[derive(Debug)]
pub struct MemScanLane<'a> {
    handle: UnboundedHandle<'a, u64, EpochBackend>,
    stats: Option<CoreStats>,
}

impl Lane for MemScanLane<'_> {
    #[inline]
    fn scan(&mut self) -> Result<SnapshotView<u64>, String> {
        Ok(match &mut self.stats {
            None => self.handle.scan(),
            Some(acc) => {
                let (view, s) = self.handle.scan_with_stats();
                acc.add_scan(s);
                view
            }
        })
    }

    #[inline]
    fn update(&mut self, _slot: usize, value: u64) -> Result<(), String> {
        match &mut self.stats {
            None => self.handle.update(value),
            Some(acc) => acc.add_update(self.handle.update_with_stats(value)),
        }
        Ok(())
    }

    fn subset(&mut self, _segments: &[usize]) -> Result<PartialView<u64>, String> {
        unreachable!("mem-scan scripts no subset scans")
    }

    fn core_stats(&self) -> CoreStats {
        self.stats.unwrap_or_default()
    }
}

impl Stack for MemScan {
    type Lane<'a> = MemScanLane<'a>;

    fn lane(&self, client: usize, with_stats: bool) -> MemScanLane<'_> {
        MemScanLane {
            handle: self.obj.handle(ProcessId::new(client)),
            stats: with_stats.then(CoreStats::default),
        }
    }

    fn seed(&self) -> Result<[(Checker, u64); 2], String> {
        sw_seed(|lane, v| {
            self.obj.handle(ProcessId::new(lane)).update(v);
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------
// mem-mw
// ---------------------------------------------------------------------

/// `mem-mw`: the Figure 4 object, two processes over 8 words.
#[derive(Debug)]
pub struct MemMw {
    obj: MultiWriterSnapshot<u64>,
}

impl MemMw {
    /// A fresh 2-process, 8-word object.
    pub fn build() -> Self {
        MemMw {
            obj: MultiWriterSnapshot::new(2, SEGMENTS, 0u64),
        }
    }
}

/// A `mem-mw` client.
#[derive(Debug)]
pub struct MemMwLane<'a> {
    handle: MultiWriterHandle<'a, u64, EpochBackend, EpochBackend>,
    stats: Option<CoreStats>,
}

impl Lane for MemMwLane<'_> {
    #[inline]
    fn scan(&mut self) -> Result<SnapshotView<u64>, String> {
        Ok(match &mut self.stats {
            None => self.handle.scan(),
            Some(acc) => {
                let (view, s) = self.handle.scan_with_stats();
                acc.add_scan(s);
                view
            }
        })
    }

    #[inline]
    fn update(&mut self, slot: usize, value: u64) -> Result<(), String> {
        match &mut self.stats {
            None => self.handle.update(slot, value),
            Some(acc) => acc.add_update(self.handle.update_with_stats(slot, value)),
        }
        Ok(())
    }

    fn subset(&mut self, _segments: &[usize]) -> Result<PartialView<u64>, String> {
        unreachable!("mem-mw scripts no subset scans")
    }

    fn core_stats(&self) -> CoreStats {
        self.stats.unwrap_or_default()
    }
}

impl Stack for MemMw {
    type Lane<'a> = MemMwLane<'a>;

    fn lane(&self, client: usize, with_stats: bool) -> MemMwLane<'_> {
        MemMwLane {
            handle: self.obj.handle(ProcessId::new(client)),
            stats: with_stats.then(CoreStats::default),
        }
    }

    fn seed(&self) -> Result<[(Checker, u64); 2], String> {
        // Writer 1 (client 0) writes all eight words once, seqs 1..=8.
        let mut last_written: View = [0; SEGMENTS];
        let mut handle = self.obj.handle(ProcessId::new(0));
        for (word, slot) in last_written.iter_mut().enumerate() {
            *slot = word as u64 + 1;
            handle.update(word, value(1, *slot));
        }
        Ok([
            (
                Checker::Mw(MwChecker::new(0, 1, last_written)),
                SEGMENTS as u64,
            ),
            (Checker::Mw(MwChecker::new(1, 2, [0; SEGMENTS])), 0),
        ])
    }
}

// ---------------------------------------------------------------------
// svc, abd-sim, wire, wire-durable, wire-degraded
// ---------------------------------------------------------------------

/// What a served stack keeps alive beside the service, and stops on
/// tear-down.
#[derive(Debug)]
enum Backing {
    /// `svc`: the in-process construction, nothing to stop.
    InProcess,
    /// `abd-sim`: the simulated 3-replica network.
    Sim(Arc<Network>),
    /// `wire*`: three replica servers on UDS and the client transport.
    Wire {
        transport: Arc<RemoteTransport>,
        servers: Vec<ReplicaServer>,
        /// The directory holding the state logs when the replicas are
        /// durable.
        durable_dir: Option<PathBuf>,
        /// The replica `wire-degraded` takes down after warm-up.
        take_down: Option<usize>,
    },
}

/// `SnapshotService` over some backing core, plus that core's plumbing.
#[derive(Debug)]
pub struct Served<C: TrySnapshotCore<u64>> {
    service: SnapshotService<u64, C>,
    registry: Registry,
    backing: Backing,
}

/// A service client.
#[derive(Debug)]
pub struct ServedLane<'a, C: TrySnapshotCore<u64>> {
    client: ServiceClient<'a, u64, C>,
    lane: usize,
}

impl<C: TrySnapshotCore<u64>> Lane for ServedLane<'_, C> {
    #[inline]
    fn scan(&mut self) -> Result<SnapshotView<u64>, String> {
        self.client.scan().map_err(|e| e.to_string())
    }

    #[inline]
    fn update(&mut self, _slot: usize, value: u64) -> Result<(), String> {
        self.client
            .update(self.lane, value)
            .map_err(|e| e.to_string())
    }

    #[inline]
    fn subset(&mut self, segments: &[usize]) -> Result<PartialView<u64>, String> {
        self.client.scan_subset(segments).map_err(|e| e.to_string())
    }
}

fn serve<C: TrySnapshotCore<u64>>(core: C, trace: &Trace, backing: Backing) -> Served<C> {
    let registry = Registry::new();
    let service = SnapshotService::new(core)
        .with_registry(&registry)
        .with_trace(trace.clone());
    Served {
        service,
        registry,
        backing,
    }
}

/// `svc`: the service over the in-process Figure 2 object.
pub fn build_svc(trace: &Trace) -> Served<UnboundedSnapshot<u64>> {
    serve(
        UnboundedSnapshot::new(SEGMENTS, 0u64),
        trace,
        Backing::InProcess,
    )
}

/// `abd-sim`: the service over `AbdSnapshotCore` on the simulated
/// network, default `NetworkConfig` (no injected delay, loss or jitter).
pub fn build_abd_sim(trace: &Trace) -> Served<AbdSnapshotCore<u64>> {
    let network = Arc::new(Network::with_config(
        NetworkConfig::new(REPLICAS).with_trace(trace.clone()),
    ));
    let core = AbdSnapshotCore::new(&network, SEGMENTS, 0u64);
    serve(core, trace, Backing::Sim(network))
}

/// Which `wire*` workload to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFlavor {
    /// In-memory replica stores.
    Plain,
    /// State log, `FsyncPolicy::Always`, 64 KiB checkpoints.
    Durable,
    /// As `Plain`, replica 2 shut down after warm-up.
    Degraded,
}

/// Replica `i`'s UDS socket under `dir`.
fn replica_endpoint(dir: &Path, i: usize) -> Endpoint {
    Endpoint::Uds(dir.join(format!("r{i}.sock")))
}

/// Replica `i`'s configuration: its socket under `dir`, and when
/// `durable` a state log beside it.
fn replica_config(dir: &Path, i: usize, durable: bool) -> ServerConfig {
    let config = ServerConfig::new(replica_endpoint(dir, i), i as u32);
    if durable {
        config
            .with_state_log(dir.join(format!("r{i}.log")))
            .with_fsync(FsyncPolicy::Always)
            .with_checkpoint_bytes(CHECKPOINT_BYTES)
    } else {
        config
    }
}

/// Spawns the replicas of `0..REPLICAS` not named by `except` under `dir`
/// and connects a transport to all `REPLICAS` endpoints.
fn spawn_replicas(
    dir: &Path,
    durable: bool,
    except: Option<usize>,
    trace: &Trace,
) -> Result<(Vec<ReplicaServer>, Arc<RemoteTransport>), String> {
    let mut servers = Vec::with_capacity(REPLICAS);
    for i in (0..REPLICAS).filter(|&i| except != Some(i)) {
        let server = ReplicaServer::spawn(replica_config(dir, i, durable))
            .map_err(|e| format!("spawning replica {i}: {e}"))?;
        servers.push(server);
    }
    let endpoints = (0..REPLICAS).map(|i| replica_endpoint(dir, i)).collect();
    let transport = Arc::new(RemoteTransport::connect(
        RemoteConfig::new(endpoints).with_trace(trace.clone()),
    ));
    if !transport.wait_connected(servers.len(), Duration::from_secs(10)) {
        return Err(format!(
            "only {} of {} replicas connected",
            transport.connected_replicas(),
            servers.len()
        ));
    }
    Ok((servers, transport))
}

/// `wire*`: the service over `AbdSnapshotCore::remote` and a
/// `RemoteTransport` to three in-process `ReplicaServer`s on UDS sockets
/// under `dir` (which must exist and be short enough for `sun_path`).
pub fn build_wire(
    dir: &Path,
    flavor: WireFlavor,
    trace: &Trace,
) -> Result<Served<AbdSnapshotCore<u64>>, String> {
    let durable = flavor == WireFlavor::Durable;
    let (servers, transport) = spawn_replicas(dir, durable, None, trace)?;
    let core =
        AbdSnapshotCore::remote(Arc::clone(&transport) as Arc<dyn Transport>, SEGMENTS, 0u64);
    let backing = Backing::Wire {
        transport,
        servers,
        durable_dir: durable.then(|| dir.to_path_buf()),
        take_down: (flavor == WireFlavor::Degraded).then_some(REPLICAS - 1),
    };
    Ok(serve(core, trace, backing))
}

impl Served<AbdSnapshotCore<u64>> {
    /// A fresh register on the same replicas, outside the snapshot
    /// object's own eight (for the single-register probes).
    pub fn standalone_register(&self) -> Option<AbdRegister<u64>> {
        match &self.backing {
            Backing::InProcess => None,
            Backing::Sim(network) => Some(AbdRegister::new(Arc::clone(network), 0u64)),
            Backing::Wire { transport, .. } => Some(AbdRegister::with_wire_codec(
                Arc::clone(transport) as Arc<dyn Transport>,
                RegisterId::from_lane_segment(PROBE_LANE, 0),
                0u64,
            )),
        }
    }

    /// Bytes currently in the replicas' state logs, summed.
    pub fn log_bytes(&self) -> u64 {
        match &self.backing {
            Backing::Wire { servers, .. } => servers.iter().map(|s| s.store().log_bytes()).sum(),
            _ => 0,
        }
    }
}

impl<C: TrySnapshotCore<u64>> Stack for Served<C> {
    type Lane<'a>
        = ServedLane<'a, C>
    where
        C: 'a;

    fn lane(&self, client: usize, _with_stats: bool) -> ServedLane<'_, C> {
        ServedLane {
            client: self.service.client(client),
            lane: client,
        }
    }

    fn seed(&self) -> Result<[(Checker, u64); 2], String> {
        sw_seed(|lane, v| {
            self.service
                .client(lane)
                .update(lane, v)
                .map_err(|e| e.to_string())
        })
    }

    fn after_warm_up(&self) {
        if let Backing::Wire {
            servers,
            take_down: Some(victim),
            ..
        } = &self.backing
        {
            servers[*victim].shutdown();
        }
    }

    fn counters(&self) -> Counters {
        let mut out = Counters::new();
        read_registry(&self.registry, &mut out);
        match &self.backing {
            Backing::InProcess => {}
            Backing::Sim(network) => read_registry(network.registry(), &mut out),
            Backing::Wire {
                transport, servers, ..
            } => {
                read_registry(transport.registry(), &mut out);
                for server in servers {
                    read_registry(server.registry(), &mut out);
                }
            }
        }
        out
    }

    fn tear_down(self, acked: Option<&View>) -> Result<(), Violation> {
        let Served {
            service, backing, ..
        } = self;
        // The service owns the core, whose registers hold the transport:
        // clients first, then the replicas they talk to.
        drop(service);
        match backing {
            Backing::InProcess => Ok(()),
            Backing::Sim(network) => {
                drop(network);
                Ok(())
            }
            Backing::Wire {
                transport,
                servers,
                durable_dir,
                ..
            } => {
                stop(transport, servers);
                match (durable_dir, acked) {
                    (Some(dir), Some(acked)) => verify_durable(&dir, acked),
                    _ => Ok(()),
                }
            }
        }
    }
}

/// Drops the client transport, then shuts the replicas down and joins
/// their threads.
fn stop(transport: Arc<RemoteTransport>, servers: Vec<ReplicaServer>) {
    drop(transport);
    for server in &servers {
        server.shutdown();
    }
    drop(servers);
}

/// What a client scans from the state logs under `dir` with replica
/// `left_out` absent: the other two are respawned on a copy of their
/// logs (a scan writes back what it read, so the originals stay as the
/// run left them).
fn scan_without(dir: &Path, left_out: usize) -> Result<SnapshotView<u64>, String> {
    let copy = dir.join(format!("reopen{left_out}"));
    copy_files(dir, &copy).map_err(|e| format!("copying the state logs: {e}"))?;
    let (servers, transport) = spawn_replicas(&copy, true, Some(left_out), &Trace::disabled())?;
    let core =
        AbdSnapshotCore::remote(Arc::clone(&transport) as Arc<dyn Transport>, SEGMENTS, 0u64);
    let service = SnapshotService::new(core);
    let view = service.client(0).scan();
    drop(service);
    stop(transport, servers);
    let _ = std::fs::remove_dir_all(&copy);
    view.map_err(|e| format!("scanning without replica {left_out}: {e}"))
}

/// Requires every lane's last acknowledged value, or a newer one, on a
/// majority of the state logs under `dir`, through the public path only.
/// A scan of two reopened replicas needs both (a majority of three) and
/// returns the newer of what they hold, so all three pairs return at
/// least `acked[lane]` exactly when two of the three logs hold it.
fn verify_durable(dir: &Path, acked: &View) -> Result<(), Violation> {
    let fail = |detail: String| Violation {
        rule: "durable-majority",
        client: usize::MAX,
        detail,
    };
    for left_out in 0..REPLICAS {
        let view = scan_without(dir, left_out).map_err(&fail)?;
        if let Some(lane) = (0..SEGMENTS).find(|&lane| view[lane] < acked[lane]) {
            return Err(fail(format!(
                "lane {lane}: acknowledged value {:#x}, but the logs of the two replicas other than {left_out} hold {:#x}",
                acked[lane], view[lane]
            )));
        }
    }
    Ok(())
}

/// Copies the regular files of `from` (state logs and checkpoints; not
/// sockets, not directories) into a new directory `to`.
fn copy_files(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The per-run scratch directory: UDS sockets, state logs, checkpoints.
/// Removed on drop — also when a check failed or a thread panicked.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
    next: std::cell::Cell<usize>,
}

impl RunDir {
    /// Creates `root/run-<pid>`; refuses to reuse an existing one.
    pub fn create(root: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        let path = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(RunDir {
            path,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, empty subdirectory (one per stack instance).
    pub fn fresh(&self) -> Result<PathBuf, String> {
        let n = self.next.get();
        self.next.set(n + 1);
        let sub = self.path.join(n.to_string());
        std::fs::create_dir(&sub).map_err(|e| format!("creating {}: {e}", sub.display()))?;
        Ok(sub)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The durable check passes on what a majority of logs holds, and
    /// fails on a value only one log holds: the case the per-pair copies
    /// exist for.
    #[test]
    fn durable_check_needs_the_value_on_two_logs() {
        // Beside the test binary, inside the target directory.
        let exe = std::env::current_exe().expect("test binary path");
        let root = exe.parent().expect("deps directory").join("durable-check");
        let _ = std::fs::remove_dir_all(&root);
        let dir = RunDir::create(&root).expect("scratch directory");
        let seeded: View = std::array::from_fn(|j| value(j + 1, 1));
        let build = |at: &Path| {
            let stack = build_wire(at, WireFlavor::Durable, &Trace::disabled())
                .expect("three durable replicas");
            stack.seed().expect("seeding");
            stack
        };

        let old = dir.fresh().unwrap();
        build(&old)
            .tear_down(Some(&seeded))
            .expect("every seeded value is on a majority");

        let new = dir.fresh().unwrap();
        let stack = build(&new);
        let mut acked = seeded;
        acked[0] = value(1, 2);
        stack.service.client(0).update(0, acked[0]).expect("update");
        stack
            .tear_down(Some(&acked))
            .expect("acknowledged, so on a majority");

        // Replicas 1 and 2 lose the update: their files go back to the
        // seeded state, and replica 0's log alone holds it.
        for entry in std::fs::read_dir(&old).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name.starts_with("r1.") || name.starts_with("r2.") {
                std::fs::copy(old.join(&name), new.join(&name)).unwrap();
            }
        }
        let violation = verify_durable(&new, &acked).expect_err("one log is not a majority");
        assert_eq!(violation.rule, "durable-majority", "{violation}");
        assert_eq!(scan_without(&new, 1).unwrap()[0], acked[0]);
        assert_eq!(scan_without(&new, 2).unwrap()[0], acked[0]);
        // Last: those two scans wrote the value back, but only to copies.
        assert_eq!(scan_without(&new, 0).unwrap()[0], seeded[0]);
        drop(dir);
        let _ = std::fs::remove_dir(&root);
    }
}
