//! One workload run: set up, warm up, measure in windows, check, tear
//! down, then set up several times more for a steady `setup_s`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::check::{check_chain, check_pair_chains, View, Violation};
use crate::drive::Checker;
use crate::drive::Lane;
use crate::drive::{
    measure, warm_up, ClientState, CoreStats, Measure, OpSpan, Window, SCAN, SUBSET, UPDATE,
};
use crate::gen::{script, Mix};
use crate::stack::{since, Counters, Stack};
use crate::stats::{median, median_of_windows, quantile_ns};
use crate::{CLIENTS, SEGMENTS};

/// Measurement windows per run; every end-to-end value is the median over
/// them of the per-window statistic.
pub const WINDOWS: usize = 5;
/// Samples of one op kind a window needs for its own p99: ten beyond
/// the percentile.
pub const MIN_P99_SAMPLES: usize = 1000;
/// After the measured pass, set-up is repeated until this much time has
/// gone into it, and at least [`MIN_SETUPS`] times in all; `setup_s` is
/// the median. The repeats follow the measurement because this host runs
/// everything up to 40 % slow for the first second or two after it sat
/// idle (a 1 s `mem-scan` run reads 5.3 M ops/s there, 7.9 M after), and
/// a sub-millisecond set-up timed at process start reads that state, not
/// the program.
const SETUP_BUDGET: Duration = Duration::from_millis(400);
const MIN_SETUPS: usize = 5;

/// Why a run produced no result.
#[derive(Debug)]
pub enum Failure {
    /// An output was wrong.
    Violation(Violation),
    /// The stack could not be built or seeded.
    Setup(String),
    /// A named metric has nothing behind it: no sample of its op kind, or
    /// a value that is absent or not finite. Reporting 0 would read as a
    /// gain on a lower-is-better metric.
    Metric(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Violation(v) => v.fmt(f),
            Failure::Setup(s) => write!(f, "set-up failed: {s}"),
            Failure::Metric(s) => write!(f, "metric without a value: {s}"),
        }
    }
}

impl From<Violation> for Failure {
    fn from(v: Violation) -> Self {
        Failure::Violation(v)
    }
}

/// What to run and how.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// The op mix.
    pub mix: Mix,
    /// `--seed`.
    pub seed: u64,
    /// Warm-up ops per client (2 000 in-process, 200 quorum-backed).
    pub warm_ops: usize,
    /// Total measured time, split into [`WINDOWS`] windows.
    pub measure: Duration,
    /// Time every op (else one in sixteen, as scripted).
    pub time_all: bool,
    /// Traced run: record harness op spans and `mem-*` construction stats.
    pub traced: bool,
    /// Repeat set-up for a steady `setup_s` (off for the short reference
    /// and traced segments of a `--trace 1` run).
    pub repeat_setup: bool,
    /// The instant harness span timestamps count from (shared with the
    /// trace plane's stamps).
    pub base: Instant,
}

/// Per-window end-to-end statistics, both clients merged.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// Completed ops per second (every kind, both clients).
    pub ops_per_s: f64,
    /// `[p50, p99]` in ns per op kind; `None` without samples.
    pub quantiles: [[Option<f64>; 2]; 3],
    /// Timed samples per op kind.
    pub samples: [usize; 3],
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    /// One entry per window.
    pub windows: Vec<WindowStats>,
    /// Every set-up's duration, in seconds.
    pub setups_s: Vec<f64>,
    /// Ops attempted (both clients, warm-up included).
    pub attempted: u64,
    /// Ops that returned a typed error.
    pub failed: u64,
    /// The first typed error, if any.
    pub first_error: Option<String>,
    /// Registry deltas over the measured part.
    pub counters: Counters,
    /// Summed `*_with_stats` output (traced `mem-*` only).
    pub core: CoreStats,
    /// Newest harness op spans per client (traced only).
    pub spans: [VecDeque<OpSpan>; CLIENTS],
    /// p99 per op kind over all windows pooled, and how many samples
    /// that is.
    pub pooled_p99: [Option<f64>; 3],
    /// See `pooled_p99`.
    pub pooled_samples: [usize; 3],
    /// Ops completed inside the windows (both clients).
    pub measured_ops: u64,
    /// Wall time of the measured part.
    pub wall_s: f64,
    /// Process CPU time and context switches over the measured part.
    pub usage: crate::procfs::Usage,
    /// Threads alive in the process while the clients ran.
    pub threads: f64,
}

impl Outcome {
    fn stat(&self, f: impl Fn(&WindowStats) -> Option<f64>) -> Option<f64> {
        median_of_windows(self.windows.iter().map(f))
    }

    /// Median over windows of ops per second.
    pub fn ops_per_s(&self) -> Option<f64> {
        self.stat(|w| Some(w.ops_per_s))
    }

    /// Median over windows of the p50 of op kind `kind`.
    pub fn p50(&self, kind: usize) -> Option<f64> {
        self.stat(|w| w.quantiles[kind][0])
    }

    /// Whether every window holds enough samples of `kind` for a
    /// per-window p99 (ten beyond it).
    pub fn p99_per_window(&self, kind: usize) -> bool {
        self.min_samples(kind) >= MIN_P99_SAMPLES
    }

    /// The p99 of op kind `kind`: the median over windows of the
    /// per-window p99 when every window has [`MIN_P99_SAMPLES`] samples
    /// of that kind, else the p99 of all windows pooled (the slow,
    /// quorum-backed workloads, where only the whole run leaves ten
    /// samples beyond the percentile).
    pub fn p99(&self, kind: usize) -> Option<f64> {
        if self.p99_per_window(kind) {
            self.stat(|w| w.quantiles[kind][1])
        } else {
            self.pooled_p99[kind]
        }
    }

    /// The fewest timed samples of `kind` any window had.
    pub fn min_samples(&self, kind: usize) -> usize {
        self.windows
            .iter()
            .map(|w| w.samples[kind])
            .min()
            .unwrap_or(0)
    }

    /// Median set-up time.
    pub fn setup_s(&self) -> Option<f64> {
        median(&self.setups_s)
    }

    /// Max ÷ min of the per-window ops per second.
    pub fn window_spread(&self) -> f64 {
        let rates = self.windows.iter().map(|w| w.ops_per_s);
        let (lo, hi) = rates.fold((f64::INFINITY, 0.0f64), |(lo, hi), r| {
            (lo.min(r), hi.max(r))
        });
        if lo > 0.0 && lo.is_finite() {
            hi / lo
        } else {
            0.0
        }
    }
}

fn merge_windows(per_client: &[Vec<Window>]) -> Vec<WindowStats> {
    let count = per_client.iter().map(Vec::len).min().unwrap_or(0);
    (0..count)
        .map(|w| {
            let mut stats = WindowStats::default();
            for windows in per_client {
                let win = &windows[w];
                stats.ops_per_s += win.ops as f64 / (win.dur_ns as f64 / 1e9);
            }
            for kind in [SCAN, UPDATE, SUBSET] {
                let mut merged: Vec<u32> = per_client
                    .iter()
                    .flat_map(|windows| windows[w].samples[kind].iter().copied())
                    .collect();
                merged.sort_unstable();
                stats.samples[kind] = merged.len();
                stats.quantiles[kind] = [quantile_ns(&merged, 0.50), quantile_ns(&merged, 0.99)];
            }
            stats
        })
        .collect()
}

/// What the main thread reads off a measured pass while every thread of
/// the run is still alive.
struct Readings {
    counters: Counters,
    wall_s: f64,
    usage: crate::procfs::Usage,
    threads: f64,
}

/// What one client thread hands back.
struct ClientOut {
    state: ClientState,
    windows: Vec<Window>,
    core: CoreStats,
    error: Option<Violation>,
}

/// One set-up (build, seed, warm up) and, when `measured` is set, the
/// measurement on the stack it produced. Returns the set-up time and the
/// measurement's raw output.
fn one_pass<S: Stack>(
    build: &dyn Fn() -> Result<S, String>,
    spec: &RunSpec,
    scripts: &[Vec<crate::gen::Op>; CLIENTS],
    measured: bool,
) -> Result<(f64, Vec<ClientOut>, Option<Readings>), Failure> {
    let t_setup = Instant::now();
    let stack = build().map_err(Failure::Setup)?;
    let seeded = stack.seed().map_err(Failure::Setup)?;
    // Main and the clients meet four times: warmed up, go, finished, read
    // out. Every thread reaches every meeting, failed or not, so nobody
    // is left parked; clients stay alive until "read out" so the
    // per-thread readings under /proc still include them.
    let meet = Barrier::new(CLIENTS + 1);
    let abort = AtomicBool::new(false);
    let cfg = Measure {
        windows: WINDOWS,
        window_ns: (spec.measure.as_nanos() / WINDOWS as u128) as u64,
        time_all: spec.time_all || spec.traced,
        spans: spec.traced,
        base: spec.base,
    };
    let mut setup_s = 0.0;
    let mut readings = None;
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeded
            .into_iter()
            .enumerate()
            .map(|(client, (checker, seq))| {
                let (stack, meet, abort, script) = (&stack, &meet, &abort, &scripts[client]);
                scope.spawn(move || {
                    let mut lane = stack.lane(client, spec.traced);
                    let mut state = ClientState {
                        client,
                        writer: client + 1,
                        seq,
                        pos: 0,
                        checker,
                        attempted: 0,
                        failed: 0,
                        first_error: None,
                        spans: VecDeque::with_capacity(if spec.traced {
                            crate::drive::SPAN_CAP
                        } else {
                            0
                        }),
                    };
                    let mut error = warm_up(&mut lane, script, &mut state, spec.warm_ops).err();
                    if error.is_some() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    meet.wait(); // warmed up
                    meet.wait(); // go
                    let mut windows = Vec::new();
                    if measured && !abort.load(Ordering::Relaxed) {
                        match measure(&mut lane, script, &mut state, cfg, abort) {
                            Ok(w) => windows = w,
                            Err(v) => {
                                abort.store(true, Ordering::Relaxed);
                                error = Some(v);
                            }
                        }
                    }
                    meet.wait(); // finished
                    meet.wait(); // read out
                    let core = lane.core_stats();
                    ClientOut {
                        state,
                        windows,
                        core,
                        error,
                    }
                })
            })
            .collect();
        meet.wait(); // warmed up
        stack.after_warm_up();
        let before = measured.then(|| {
            (
                stack.counters(),
                crate::procfs::Usage::now(),
                Instant::now(),
            )
        });
        setup_s = t_setup.elapsed().as_secs_f64();
        meet.wait(); // go
        meet.wait(); // finished
        if let Some((counters_before, usage_before, t_go)) = before {
            readings = Some(Readings {
                counters: since(&stack.counters(), &counters_before),
                wall_s: t_go.elapsed().as_secs_f64(),
                usage: crate::procfs::Usage::now().since(&usage_before),
                threads: crate::procfs::threads(),
            });
        }
        meet.wait(); // read out
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if let Some(v) = outs.iter().find_map(|o| o.error.clone()) {
        return Err(Failure::Violation(v));
    }
    // Last acknowledged value per segment: the clients' for lanes 0 and
    // 1, the seeded one for the rest.
    let mut acked: Option<View> = Some(std::array::from_fn(|j| crate::gen::value(j + 1, 1)));
    for out in &outs {
        match (&out.state.checker, acked.as_mut()) {
            (Checker::Sw(c), Some(acked)) => acked[out.state.client] = c.last_own(),
            _ => acked = None,
        }
    }
    stack.tear_down(acked.as_ref())?;
    Ok((setup_s, outs, readings))
}

/// Runs one workload on stacks produced by `build`.
pub fn run<S: Stack>(
    build: &dyn Fn() -> Result<S, String>,
    spec: &RunSpec,
) -> Result<Outcome, Failure> {
    let scripts: [Vec<crate::gen::Op>; CLIENTS] =
        std::array::from_fn(|c| script(spec.mix, spec.seed, c));
    let (setup_s, mut outs, readings) = one_pass(build, spec, &scripts, true)?;
    let mut setups_s = vec![setup_s];
    if spec.repeat_setup {
        let budget_start = Instant::now();
        while setups_s.len() < MIN_SETUPS || budget_start.elapsed() < SETUP_BUDGET {
            let (setup_s, ..) = one_pass(build, spec, &scripts, false)?;
            setups_s.push(setup_s);
        }
    }
    let Readings {
        counters,
        wall_s,
        usage,
        threads,
    } = readings.expect("the measured pass reads itself out");

    let per_client: Vec<Vec<Window>> = outs
        .iter_mut()
        .map(|o| std::mem::take(&mut o.windows))
        .collect();
    let measured_ops = per_client.iter().flatten().map(|w| w.ops).sum();
    let windows = merge_windows(&per_client);
    let pooled_samples = [SCAN, UPDATE, SUBSET].map(|kind| {
        per_client
            .iter()
            .flatten()
            .map(|w| w.samples[kind].len())
            .sum()
    });
    let pooled_p99 = [SCAN, UPDATE, SUBSET].map(|kind| {
        // Only needed (and only cheap) where windows are too thin.
        if windows.iter().all(|w| w.samples[kind] >= MIN_P99_SAMPLES) {
            return None;
        }
        let mut all: Vec<u32> = per_client
            .iter()
            .flatten()
            .flat_map(|w| w.samples[kind].iter().copied())
            .collect();
        all.sort_unstable();
        quantile_ns(&all, 0.99)
    });
    drop(per_client);
    let mut full_views = Vec::new();
    let mut pair_views = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut first_error = None;
    let mut core = CoreStats::default();
    let mut spans: [VecDeque<OpSpan>; CLIENTS] = Default::default();
    for out in outs {
        attempted += out.state.attempted;
        failed += out.state.failed;
        first_error = first_error.or(out.state.first_error);
        core = core.merged(out.core);
        spans[out.state.client] = out.state.spans;
        if let Checker::Sw(checker) = out.state.checker {
            let (full, pairs) = checker.into_kept();
            full_views.extend(full);
            pair_views.extend(pairs);
        }
    }
    debug_assert!(full_views.iter().all(|v| v.len() == SEGMENTS));
    check_chain(full_views)?;
    check_pair_chains(pair_views)?;
    Ok(Outcome {
        windows,
        setups_s,
        attempted,
        failed,
        first_error,
        counters,
        core,
        spans,
        pooled_p99,
        pooled_samples,
        measured_ops,
        wall_s,
        usage,
        threads,
    })
}
