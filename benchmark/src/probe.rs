//! Single-thread probes of each layer's public functions, and the ledger
//! of quiescent single-client rungs whose adjacent differences price the
//! layers.
//!
//! Every probe times *blocks* of calls with one clock read per block
//! boundary and reports the median over blocks of `block ÷ calls`:
//! 1 024 calls per block in-process, fewer per block (stated at each
//! probe) where one call is a quorum operation or an fsync.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use snapshot_core::{
    BoundedSnapshot, LockSnapshot, MultiWriterSnapshot, MwSnapshot, MwSnapshotHandle, SwSnapshot,
    SwSnapshotHandle, UnboundedSnapshot,
};
use snapshot_registers::{collect, EpochCell, ProcessId, Register, TrackedCollect, TryRegister};
use snapshot_wire::{FsyncPolicy, ReplicaStore, StoreConfig, WireTag};

use crate::drive::Lane;
use crate::gen::value;
use crate::stack::{
    build_abd_sim, build_svc, build_wire, reading, since, Counters, Served, Stack, WireFlavor,
};
use crate::stats::per_call_ns;
use crate::tracing::{FileSpan, Plane};
use crate::SEGMENTS;

const P0: ProcessId = ProcessId::new(0);
const P1: ProcessId = ProcessId::new(1);

/// Calls per block for in-process probes.
const BLOCK: usize = 1024;

/// Probe results by metric name, plus the blocks as spans of their layer.
#[derive(Debug)]
pub struct Ledger {
    /// `layer.metric` → value.
    pub values: BTreeMap<&'static str, f64>,
    /// One span per probe block.
    pub spans: Vec<FileSpan>,
    base: Instant,
}

impl Ledger {
    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// An earlier probe's value; panics if that probe has not run.
    fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// Times `blocks` blocks of `calls` calls of `f` (which receives a
    /// running call index) and returns ns per call.
    fn time(
        &mut self,
        layer: &'static str,
        name: &'static str,
        blocks: usize,
        calls: usize,
        mut f: impl FnMut(u64),
    ) -> f64 {
        let mut block_ns = Vec::with_capacity(blocks);
        let mut i = 0u64;
        for b in 0..blocks {
            let t0 = Instant::now();
            for _ in 0..calls {
                f(i);
                i += 1;
            }
            let t1 = Instant::now();
            block_ns.push(t1.duration_since(t0).as_nanos() as u64);
            let start_ns = t0.duration_since(self.base).as_nanos() as u64;
            let end_ns = t1.duration_since(self.base).as_nanos() as u64;
            self.spans.push(FileSpan {
                id: format!("p-{name}-{b}"),
                parent: None,
                name: name.to_string(),
                layer,
                request: None,
                start_ns,
                end_ns,
                self_ns: end_ns - start_ns,
            });
        }
        per_call_ns(&block_ns, calls)
    }
}

fn registers(l: &mut Ledger) {
    let cell = EpochCell::new(0u64);
    let v = l.time("registers", "registers.epoch_read", 128, BLOCK, |_| {
        black_box(cell.read(P0));
    });
    l.set("registers.epoch_read_ns", v);
    let v = l.time("registers", "registers.epoch_write", 128, BLOCK, |i| {
        cell.write(P0, i)
    });
    l.set("registers.epoch_write_ns", v);

    let stop = AtomicBool::new(false);
    let v = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                cell.write(P1, k);
                k += 1;
            }
        });
        let v = l.time(
            "registers",
            "registers.epoch_read_contended",
            128,
            BLOCK,
            |_| {
                black_box(cell.read(P0));
            },
        );
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("contending writer panicked");
        v
    });
    l.set("registers.epoch_read_contended_ns", v);

    let cells: Vec<EpochCell<u64>> = (0..SEGMENTS as u64).map(EpochCell::new).collect();
    let v = l.time("registers", "registers.collect8", 128, BLOCK, |_| {
        black_box(collect(P0, &cells));
    });
    l.set("registers.collect8_ns", v);

    // Seven passes, then one write, 1 024 times: an exact count.
    let same = |a: &u64, b: &u64| a == b;
    let mut tracked = TrackedCollect::new();
    tracked.advance(P0, &cells, false, same);
    let (mut visited, mut cloned) = (0u64, 0u64);
    for round in 0..BLOCK {
        for _ in 0..7 {
            cloned += tracked.advance(P0, &cells, false, same).cloned as u64;
            visited += SEGMENTS as u64;
        }
        cells[round % SEGMENTS].write(P1, round as u64 + 100);
    }
    l.set(
        "registers.tracked_reuse_share",
        (visited - cloned) as f64 / visited as f64,
    );
}

fn sw_construction<S: SwSnapshot<u64>>(
    l: &mut Ledger,
    obj: S,
    scan: &'static str,
    update: &'static str,
) {
    for lane in 0..SEGMENTS {
        obj.handle(ProcessId::new(lane)).update(value(lane + 1, 1));
    }
    let mut h = obj.handle(P0);
    let v = l.time("core", scan, 64, BLOCK, |_| {
        black_box(h.scan());
    });
    l.set(scan, v);
    let v = l.time("core", update, 64, BLOCK, |i| h.update(value(1, i + 2)));
    l.set(update, v);
}

fn core(l: &mut Ledger) {
    sw_construction(
        l,
        UnboundedSnapshot::new(SEGMENTS, 0u64),
        "core.unbounded.scan_ns",
        "core.unbounded.update_ns",
    );
    sw_construction(
        l,
        BoundedSnapshot::new(SEGMENTS, 0u64),
        "core.bounded.scan_ns",
        "core.bounded.update_ns",
    );
    sw_construction(
        l,
        LockSnapshot::new(SEGMENTS, 0u64),
        "core.locked.scan_ns",
        "core.locked.update_ns",
    );

    let obj = MultiWriterSnapshot::new(SEGMENTS, SEGMENTS, 0u64);
    let mut h = obj.handle(P0);
    for word in 0..SEGMENTS {
        h.update(word, value(1, word as u64 + 1));
    }
    let v = l.time("core", "core.multiwriter.scan_ns", 64, BLOCK, |_| {
        black_box(h.scan());
    });
    l.set("core.multiwriter.scan_ns", v);
    let v = l.time("core", "core.multiwriter.update_ns", 64, BLOCK, |i| {
        h.update(i as usize % SEGMENTS, value(1, i + 100));
    });
    l.set("core.multiwriter.update_ns", v);
}

/// What one rung measured.
struct Rung {
    scan_ns: f64,
    update_ns: f64,
    scans: f64,
    updates: f64,
    /// Registry deltas over the scan blocks / the update blocks.
    over_scans: Counters,
    over_updates: Counters,
}

/// The stack's counters once stragglers have landed: a quorum phase
/// returns at the second ack, so the third replica may still be applying
/// (and syncing) the last store when the client moves on.
fn settled<S: Stack>(stack: &S) -> Counters {
    std::thread::sleep(std::time::Duration::from_millis(20));
    stack.counters()
}

/// One quiescent client on lane 0 of `stack`: blocks of scans, then
/// blocks of updates.
fn rung<S: Stack>(
    l: &mut Ledger,
    stack: &S,
    layer: &'static str,
    names: [&'static str; 2],
    blocks: usize,
    calls: usize,
) -> Result<Rung, String> {
    // The seed's checkers go unused: a quiescent single client has
    // nothing to race with, so only a typed error can go wrong.
    let mut seq = stack.seed()?[0].1;
    let mut lane = stack.lane(0, false);
    let mut error = None;
    let c0 = settled(stack);
    let scan_ns = l.time(layer, names[0], blocks, calls, |_| match lane.scan() {
        Ok(view) => {
            black_box(&view);
        }
        Err(e) => error = Some(e),
    });
    let c1 = settled(stack);
    let update_ns = l.time(layer, names[1], blocks, calls, |_| {
        seq += 1;
        if let Err(e) = lane.update(0, value(1, seq)) {
            error = Some(e);
        }
    });
    let c2 = settled(stack);
    match error {
        Some(e) => Err(format!("{}: {e}", names[0])),
        None => Ok(Rung {
            scan_ns,
            update_ns,
            scans: (blocks * calls) as f64,
            updates: (blocks * calls) as f64,
            over_scans: since(&c1, &c0),
            over_updates: since(&c2, &c1),
        }),
    }
}

fn register_pair(
    l: &mut Ledger,
    served: &Served<snapshot_abd::AbdSnapshotCore<u64>>,
    layer: &'static str,
    names: [&'static str; 2],
) -> Result<(f64, f64), String> {
    let reg = served.standalone_register().expect("quorum-backed stack");
    // Written once first: a register still at its initial value skips the
    // read's write-back phase.
    TryRegister::try_write(&reg, P0, 1).map_err(|e| e.to_string())?;
    let mut error = None;
    let read = l.time(layer, names[0], 16, 128, |_| {
        match TryRegister::try_read(&reg, P0) {
            Ok(v) => {
                black_box(v);
            }
            Err(e) => error = Some(e.to_string()),
        }
    });
    let write = l.time(layer, names[1], 16, 128, |i| {
        if let Err(e) = TryRegister::try_write(&reg, P0, i + 2) {
            error = Some(e.to_string());
        }
    });
    error.map_or(Ok((read, write)), Err)
}

fn store_apply(
    l: &mut Ledger,
    store: &ReplicaStore,
    name: &'static str,
    blocks: usize,
    calls: usize,
) -> f64 {
    // The size of the record a `wire*` update stores: value, seq, and an
    // 8-entry view.
    let record: Arc<[u8]> = vec![0xA5u8; 8 + 8 + 4 + 8 * SEGMENTS].into();
    l.time("wire.store", name, blocks, calls, |i| {
        // A strictly newer tag every call, or the merge would refuse it.
        black_box(store.apply(
            0,
            0,
            WireTag {
                seq: i + 1,
                writer: 0,
            },
            Arc::clone(&record),
        ));
    })
}

fn open_store(path: std::path::PathBuf, fsync: FsyncPolicy) -> Result<ReplicaStore, String> {
    ReplicaStore::open_with(
        StoreConfig::at(path)
            .with_fsync(fsync)
            .with_checkpoint_bytes(u64::MAX),
    )
    .map_err(|e| e.to_string())
}

/// Runs every probe. `dir` makes fresh scratch directories for the
/// socket- and log-backed ones.
pub fn run_all(
    base: Instant,
    dir: &dyn Fn() -> Result<std::path::PathBuf, String>,
) -> Result<Ledger, String> {
    let mut l = Ledger {
        values: BTreeMap::new(),
        spans: Vec::new(),
        base,
    };
    let plane = Plane::disabled();
    // What a timed op carries: one clock read.
    let v = l.time("bench", "bench.timer", 64, BLOCK, |_| {
        black_box(Instant::now());
    });
    l.set("bench.timer_ns", v);
    registers(&mut l);
    core(&mut l);

    // Rung 1: the service over the in-process construction.
    let svc = build_svc(&plane.trace);
    let r1 = rung(
        &mut l,
        &svc,
        "service",
        ["service.scan_solo", "service.update_solo"],
        64,
        BLOCK,
    )?;
    svc.tear_down(None).map_err(|v| v.to_string())?;
    l.set("service.scan_solo_ns", r1.scan_ns);
    l.set("service.update_solo_ns", r1.update_ns);
    l.set(
        "service.overhead_scan_ns",
        r1.scan_ns - l.get("core.unbounded.scan_ns"),
    );
    l.set(
        "service.overhead_update_ns",
        r1.update_ns - l.get("core.unbounded.update_ns"),
    );

    // Rung 2: the same client over the simulated 3-replica network
    // (64 ops per block).
    let sim = build_abd_sim(&plane.trace);
    let (read_sim, write_sim) = register_pair(
        &mut l,
        &sim,
        "abd",
        ["abd.reg_read_sim", "abd.reg_write_sim"],
    )?;
    let r2 = rung(
        &mut l,
        &sim,
        "abd",
        ["abd.scan_solo", "abd.update_solo"],
        8,
        64,
    )?;
    sim.tear_down(None).map_err(|v| v.to_string())?;
    l.set("abd.reg_read_sim_ns", read_sim);
    l.set("abd.reg_write_sim_ns", write_sim);
    l.set("abd.scan_solo_ns", r2.scan_ns);
    l.set("abd.update_solo_ns", r2.update_ns);
    l.set("abd.overhead_scan_ns", r2.scan_ns - r1.scan_ns);
    l.set("abd.overhead_update_ns", r2.update_ns - r1.update_ns);
    l.set(
        "abd.phases_per_scan",
        reading(&r2.over_scans, "abd.quorum_latency_us") / r2.scans,
    );
    l.set(
        "abd.phases_per_update",
        reading(&r2.over_updates, "abd.quorum_latency_us") / r2.updates,
    );
    l.set(
        "abd.msgs_per_scan",
        reading(&r2.over_scans, "abd.messages_sent") / r2.scans,
    );
    l.set(
        "abd.msgs_per_update",
        reading(&r2.over_updates, "abd.messages_sent") / r2.updates,
    );

    // Rung 3: the same client over UDS to three in-memory replicas
    // (32 ops per block).
    let wire = build_wire(&dir()?, WireFlavor::Plain, &plane.trace)?;
    let (read_uds, write_uds) = register_pair(
        &mut l,
        &wire,
        "wire",
        ["wire.reg_read_uds", "wire.reg_write_uds"],
    )?;
    let r3 = rung(
        &mut l,
        &wire,
        "wire",
        ["wire.scan_solo", "wire.update_solo"],
        8,
        32,
    )?;
    wire.tear_down(None).map_err(|v| v.to_string())?;
    l.set("wire.reg_read_uds_ns", read_uds);
    l.set("wire.reg_write_uds_ns", write_uds);
    l.set("wire.phase_ns", (read_uds - read_sim) / 2.0);
    l.set("wire.scan_solo_ns", r3.scan_ns);
    l.set("wire.update_solo_ns", r3.update_ns);
    l.set("wire.overhead_scan_ns", r3.scan_ns - r2.scan_ns);
    l.set("wire.overhead_update_ns", r3.update_ns - r2.update_ns);
    let both = |name: &str| reading(&r3.over_scans, name) + reading(&r3.over_updates, name);
    l.set(
        "wire.frames_in_per_op",
        both("snapshotd.frames_in") / (r3.scans + r3.updates),
    );
    l.set(
        "wire.frames_out_per_op",
        both("snapshotd.frames_out") / (r3.scans + r3.updates),
    );
    l.set(
        "wire.stores_applied_per_update",
        reading(&r3.over_updates, "snapshotd.stores_applied") / r3.updates,
    );

    // The replica store on its own: in memory, logged, logged + fsync
    // (32 applies per fsync block).
    let store_dir = dir()?;
    let v = store_apply(
        &mut l,
        &ReplicaStore::in_memory(),
        "wire.store.apply_mem",
        32,
        BLOCK,
    );
    l.set("wire.store.apply_mem_ns", v);
    let store = open_store(store_dir.join("never.log"), FsyncPolicy::Never)?;
    let v = store_apply(&mut l, &store, "wire.store.apply_log", 16, BLOCK);
    l.set("wire.store.apply_log_ns", v);
    let store = open_store(store_dir.join("always.log"), FsyncPolicy::Always)?;
    let v = store_apply(&mut l, &store, "wire.store.apply_fsync", 8, 32);
    l.set("wire.store.apply_fsync_ns", v);
    drop(store);

    // Rung 4: rung 3 with durable replicas (16 updates per block; scans
    // append nothing, so only the update is priced).
    let durable = build_wire(&dir()?, WireFlavor::Durable, &plane.trace)?;
    let bytes_before = durable.log_bytes();
    let r4 = rung(
        &mut l,
        &durable,
        "wire.store",
        ["wire.store.scan_solo", "wire.store.update_solo"],
        8,
        16,
    )?;
    let log_bytes = durable.log_bytes() as f64 - bytes_before as f64;
    durable.tear_down(None).map_err(|v| v.to_string())?;
    l.set("wire.store.update_solo_ns", r4.update_ns);
    l.set("wire.store.overhead_update_ns", r4.update_ns - r3.update_ns);
    let per_update =
        |name: &str| (reading(&r4.over_scans, name) + reading(&r4.over_updates, name)) / r4.updates;
    l.set(
        "wire.store.appends_per_update",
        per_update("snapshotd.store.appends"),
    );
    l.set(
        "wire.store.fsyncs_per_update",
        per_update("snapshotd.store.fsyncs"),
    );
    // The seed's eight writes are in `bytes_before`'s past only if they
    // preceded it; they did not, so count them with the updates.
    l.set(
        "wire.store.log_bytes_per_update",
        log_bytes / (r4.updates + SEGMENTS as f64),
    );
    Ok(l)
}
