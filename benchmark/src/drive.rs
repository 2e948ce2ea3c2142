//! The closed-loop client: replay the script, time ops, check every view.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use snapshot_core::{ScanStats, SnapshotView};
use snapshot_service::PartialView;

use crate::check::{MwChecker, SwChecker, Violation};
use crate::gen::{value, Op, OpKind};

/// Op kinds as sample-array indices.
pub const SCAN: usize = 0;
/// See [`SCAN`].
pub const UPDATE: usize = 1;
/// See [`SCAN`].
pub const SUBSET: usize = 2;
/// Names of the op kinds, indexed like the sample arrays.
pub const KIND_NAMES: [&str; 3] = ["scan", "update", "scan_subset"];

/// Harness op spans kept per client in a traced run (the newest ones, to
/// line up with what the bounded trace ring retains).
pub const SPAN_CAP: usize = 1 << 15;

/// One client's handle on the stack under test.
pub trait Lane {
    /// A full scan.
    fn scan(&mut self) -> Result<SnapshotView<u64>, String>;
    /// An update; single-writer lanes write their own segment and ignore
    /// `slot`, `mem-mw` writes word `slot`.
    fn update(&mut self, slot: usize, value: u64) -> Result<(), String>;
    /// A two-segment partial scan (never scripted for the `mem-*` mixes).
    fn subset(&mut self, segments: &[usize]) -> Result<PartialView<u64>, String>;
    /// Construction-level statistics a traced `mem-*` lane accumulated.
    fn core_stats(&self) -> CoreStats {
        CoreStats::default()
    }
}

/// Sums of [`ScanStats`] over a traced `mem-*` run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreStats {
    /// Scans observed.
    pub scans: u64,
    /// Updates observed.
    pub updates: u64,
    /// Double collects run by scans.
    pub double_collects: u64,
    /// Scans that returned a borrowed view.
    pub borrowed: u64,
    /// Register reads issued by scans.
    pub scan_reads: u64,
    /// Register writes issued by updates.
    pub update_writes: u64,
}

impl CoreStats {
    /// Adds one scan's statistics.
    pub fn add_scan(&mut self, s: ScanStats) {
        self.scans += 1;
        self.double_collects += u64::from(s.double_collects);
        self.borrowed += u64::from(s.borrowed);
        self.scan_reads += s.reads;
    }

    /// Adds one update's statistics.
    pub fn add_update(&mut self, s: ScanStats) {
        self.updates += 1;
        self.update_writes += s.writes;
    }

    /// Componentwise sum.
    pub fn merged(self, o: CoreStats) -> CoreStats {
        CoreStats {
            scans: self.scans + o.scans,
            updates: self.updates + o.updates,
            double_collects: self.double_collects + o.double_collects,
            borrowed: self.borrowed + o.borrowed,
            scan_reads: self.scan_reads + o.scan_reads,
            update_writes: self.update_writes + o.update_writes,
        }
    }
}

/// The checker matching the stack's write discipline.
#[derive(Debug)]
pub enum Checker {
    /// Single-writer segments.
    Sw(SwChecker),
    /// `mem-mw`.
    Mw(MwChecker),
}

/// One measurement window of one client.
#[derive(Debug, Default)]
pub struct Window {
    /// Ops completed (every kind, failed ones included).
    pub ops: u64,
    /// The window's actual length on this client.
    pub dur_ns: u64,
    /// Timed samples in ns, indexed by op kind.
    pub samples: [Vec<u32>; 3],
}

/// A harness-recorded root span: one per op in a traced run.
#[derive(Clone, Copy, Debug)]
pub struct OpSpan {
    /// Op kind index.
    pub kind: u8,
    /// Start, ns since the run's base instant.
    pub start_ns: u64,
    /// End, ns since the run's base instant.
    pub end_ns: u64,
}

/// Everything one client carries from warm-up into measurement and out.
#[derive(Debug)]
pub struct ClientState {
    /// Client index (= lane for single-writer stacks).
    pub client: usize,
    /// 1-based writer id baked into this client's values.
    pub writer: usize,
    /// Seq of the client's last attempted update.
    pub seq: u64,
    /// Next script position.
    pub pos: usize,
    /// The output checker.
    pub checker: Checker,
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// Ops that returned a typed error, warm-up included.
    pub failed: u64,
    /// The first typed error's text, for the report.
    pub first_error: Option<String>,
    /// Newest op spans (traced runs only).
    pub spans: VecDeque<OpSpan>,
}

/// How the measurement loop times and records.
#[derive(Clone, Copy, Debug)]
pub struct Measure {
    /// Number of windows.
    pub windows: usize,
    /// Length of each window.
    pub window_ns: u64,
    /// Time every op (service and quorum stacks, and every traced run);
    /// otherwise only the ops the script marks.
    pub time_all: bool,
    /// Record an [`OpSpan`] per timed op.
    pub spans: bool,
    /// Base instant for span timestamps.
    pub base: Instant,
}

enum Done {
    Scan(SnapshotView<u64>),
    Subset(PartialView<u64>),
    Update { slot: usize, seq: u64, value: u64 },
    Failed { update: bool, error: String },
}

#[inline(always)]
fn exec<L: Lane>(lane: &mut L, op: Op, st: &mut ClientState) -> Done {
    match op.kind {
        OpKind::Scan => match lane.scan() {
            Ok(view) => Done::Scan(view),
            Err(error) => Done::Failed {
                update: false,
                error,
            },
        },
        OpKind::Update => {
            st.seq += 1;
            let value = value(st.writer, st.seq);
            match lane.update(op.a as usize, value) {
                Ok(()) => Done::Update {
                    slot: op.a as usize,
                    seq: st.seq,
                    value,
                },
                Err(error) => Done::Failed {
                    update: true,
                    error,
                },
            }
        }
        OpKind::Subset => match lane.subset(&[op.a as usize, op.b as usize]) {
            Ok(view) => Done::Subset(view),
            Err(error) => Done::Failed {
                update: false,
                error,
            },
        },
    }
}

#[inline(always)]
fn verify(done: Done, st: &mut ClientState) -> Result<(), Violation> {
    match (done, &mut st.checker) {
        (Done::Scan(view), Checker::Sw(c)) => c.on_scan(&view),
        (Done::Scan(view), Checker::Mw(c)) => c.on_scan(&view),
        (Done::Subset(view), Checker::Sw(c)) => c.on_subset(view.segments(), view.values()),
        (Done::Subset(_), Checker::Mw(_)) => unreachable!("mem-mw scripts no subset scans"),
        (Done::Update { value, .. }, Checker::Sw(c)) => {
            c.on_update(value);
            Ok(())
        }
        (Done::Update { slot, seq, .. }, Checker::Mw(c)) => {
            c.on_update(slot, seq);
            Ok(())
        }
        (Done::Failed { update, error }, checker) => {
            st.failed += 1;
            st.first_error.get_or_insert(error);
            if update {
                // Indeterminate: the write may or may not be visible, so
                // the own-value equality can no longer be asserted.
                match checker {
                    Checker::Sw(c) => c.forget_own(),
                    Checker::Mw(c) => c.forget_own(),
                }
            }
            Ok(())
        }
    }
}

fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Scan => SCAN,
        OpKind::Update => UPDATE,
        OpKind::Subset => SUBSET,
    }
}

/// Runs `ops` scripted ops untimed, checking every output.
pub fn warm_up<L: Lane>(
    lane: &mut L,
    script: &[Op],
    st: &mut ClientState,
    ops: usize,
) -> Result<(), Violation> {
    for _ in 0..ops {
        let op = script[st.pos & (script.len() - 1)];
        st.pos += 1;
        st.attempted += 1;
        let done = exec(lane, op, st);
        verify(done, st)?;
    }
    Ok(())
}

/// The measured closed loop: one op at a time until the last window
/// closes, `abort` is raised, or a check fails.
pub fn measure<L: Lane>(
    lane: &mut L,
    script: &[Op],
    st: &mut ClientState,
    cfg: Measure,
    abort: &AtomicBool,
) -> Result<Vec<Window>, Violation> {
    debug_assert!(script.len().is_power_of_two());
    let mask = script.len() - 1;
    let mut windows: Vec<Window> = Vec::with_capacity(cfg.windows);
    let mut current = Window::default();
    let mut window_start = Instant::now();
    while windows.len() < cfg.windows {
        let op = script[st.pos & mask];
        st.pos += 1;
        st.attempted += 1;
        if cfg.time_all || op.timed {
            let t0 = Instant::now();
            let done = exec(lane, op, st);
            let t1 = Instant::now();
            let ns = t1.duration_since(t0).as_nanos();
            current.samples[kind_index(op.kind)].push(u32::try_from(ns).unwrap_or(u32::MAX));
            current.ops += 1;
            if cfg.spans {
                if st.spans.len() == SPAN_CAP {
                    st.spans.pop_front();
                }
                st.spans.push_back(OpSpan {
                    kind: kind_index(op.kind) as u8,
                    start_ns: t0.duration_since(cfg.base).as_nanos() as u64,
                    end_ns: t1.duration_since(cfg.base).as_nanos() as u64,
                });
            }
            verify(done, st)?;
            let elapsed = t1.duration_since(window_start).as_nanos() as u64;
            if elapsed >= cfg.window_ns {
                current.dur_ns = elapsed;
                // The next window's sample buffers are sized from this
                // one's, so they are not grown (reallocated, copied) in
                // the middle of the measurement.
                let next = Window {
                    samples: [SCAN, UPDATE, SUBSET]
                        .map(|k| Vec::with_capacity(current.samples[k].len() * 5 / 4 + 64)),
                    ..Window::default()
                };
                windows.push(std::mem::replace(&mut current, next));
                window_start = t1;
            }
            if abort.load(Ordering::Relaxed) {
                break;
            }
        } else {
            let done = exec(lane, op, st);
            current.ops += 1;
            verify(done, st)?;
        }
    }
    Ok(windows)
}
