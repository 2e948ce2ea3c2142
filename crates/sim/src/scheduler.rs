use std::collections::BTreeSet;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use snapshot_obs::{Event, RegOp, Trace};
use snapshot_registers::{OpKind, ProcessId, StepGate};

use crate::policy::{Decision, ReadyProcess, SchedulePolicy};

/// Marker payload used to unwind a simulated process that the controller
/// aborts; distinguished from real panics by type.
struct AbortToken;

/// Installs (once) a panic hook that silences controller-initiated aborts;
/// real panics still print through the previously-installed hook.
fn install_quiet_abort_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<AbortToken>() {
                return;
            }
            prev(info);
        }));
    });
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Executing user code (between grants, or before its first gate call).
    Busy,
    /// Parked at the gate, waiting for a grant.
    Ready(OpKind),
    /// Granted a step; will transition to Busy when the thread wakes.
    Granted,
    /// Finished its body normally.
    Done,
    /// Unwound by the controller (step limit, halt, or crash cleanup).
    Aborted,
}

struct State {
    slots: Vec<Slot>,
    /// True once the controller has decided to tear the run down; parked
    /// and arriving processes unwind instead of proceeding.
    aborting: bool,
    /// False outside `run`, making the gate a no-op so that code touching
    /// the registers before/after the simulation does not park.
    active: bool,
    /// Panic messages from processes that failed with a *real* panic.
    panics: Vec<(usize, String)>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for grants or aborts.
    worker_cv: Condvar,
    /// The controller waits here for all workers to park or finish.
    ctrl_cv: Condvar,
}

impl Shared {
    /// A poisoned lock yields its guard: process bodies panic by design
    /// (aborts, and real failures the controller reports), and every
    /// update under the lock is one slot assignment or one push.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `cv.wait(st)`, recovering a poisoned guard like [`Shared::lock`].
fn wait<'a>(cv: &Condvar, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(st).unwrap_or_else(PoisonError::into_inner)
}

/// The [`StepGate`] connected to a [`Sim`]; install it into an
/// [`Instrumented`] backend so every register operation of the algorithm
/// under test parks here.
///
/// Outside of [`Sim::run`] the gate is inactive and passes operations
/// through immediately.
///
/// [`Instrumented`]: snapshot_registers::Instrumented
pub struct SimGate {
    shared: Arc<Shared>,
}

impl StepGate for SimGate {
    fn step(&self, pid: ProcessId, op: OpKind) {
        let mut st = self.shared.lock();
        if !st.active {
            return;
        }
        let i = pid.get();
        assert!(
            i < st.slots.len(),
            "gate used by unknown process {pid} (simulation has {} processes)",
            st.slots.len()
        );
        if st.aborting {
            st.slots[i] = Slot::Aborted;
            self.shared.ctrl_cv.notify_all();
            drop(st);
            panic::panic_any(AbortToken);
        }
        st.slots[i] = Slot::Ready(op);
        self.shared.ctrl_cv.notify_all();
        loop {
            st = wait(&self.shared.worker_cv, st);
            if st.aborting {
                st.slots[i] = Slot::Aborted;
                self.shared.ctrl_cv.notify_all();
                drop(st);
                panic::panic_any(AbortToken);
            }
            if st.slots[i] == Slot::Granted {
                st.slots[i] = Slot::Busy;
                return;
            }
        }
    }
}

impl fmt::Debug for SimGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SimGate")
    }
}

/// Configuration for one simulated run.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// Abort the run after this many grants (`None` = unlimited). Runs
    /// whose processes are being starved by an adversary use this as the
    /// non-termination detector.
    pub max_steps: Option<u64>,
    /// Halt (successfully) as soon as all of these processes have finished,
    /// aborting the rest. Lets an experiment drive "run until the scanner
    /// completes, updaters are just noise".
    pub stop_when_done: Vec<ProcessId>,
    /// Record the granted `(step, pid, op)` sequence in the report.
    pub record_trace: bool,
}

/// One granted step, for traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Grant index (0-based).
    pub step: u64,
    /// The process granted.
    pub pid: ProcessId,
    /// The operation it performed.
    pub op: OpKind,
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaltReason {
    /// Every process finished its body.
    AllDone,
    /// All processes named in [`SimConfig::stop_when_done`] finished.
    StopSetDone,
    /// The [`SimConfig::max_steps`] budget was exhausted.
    StepLimit,
    /// The policy returned [`Decision::Halt`].
    PolicyHalt,
}

/// Final status of one simulated process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessStatus {
    /// The process body ran to completion.
    Completed,
    /// The process was aborted mid-operation (starved at a step limit,
    /// crashed, or torn down by an early halt).
    Aborted,
}

/// The result of a completed simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total grants issued.
    pub steps: u64,
    /// Grants issued to each process, indexed by process id.
    pub steps_per_process: Vec<u64>,
    /// Why the run ended.
    pub halt: HaltReason,
    /// Per-process final status, indexed by process id.
    pub statuses: Vec<ProcessStatus>,
    /// The granted schedule, if [`SimConfig::record_trace`] was set.
    pub trace: Vec<StepRecord>,
}

impl SimReport {
    /// True if `pid` ran its body to completion.
    pub fn completed(&self, pid: ProcessId) -> bool {
        self.statuses[pid.get()] == ProcessStatus::Completed
    }

    /// Renders the recorded trace as one line per grant (empty when
    /// [`SimConfig::record_trace`] was off) — the simulator-side
    /// counterpart of `snapshot_lin::render_timeline`.
    pub fn render_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} steps, halt = {:?}",
            self.steps, self.halt
        );
        for record in &self.trace {
            let _ = writeln!(
                out,
                "  step {:>5}: {} {}",
                record.step, record.pid, record.op
            );
        }
        out
    }
}

/// Errors surfaced by [`Sim::run`].
#[derive(Debug)]
pub enum SimError {
    /// A process body panicked (a genuine bug in the code under test, not
    /// a controller abort).
    ProcessPanicked {
        /// The panicking process.
        pid: ProcessId,
        /// The stringified panic payload.
        message: String,
    },
    /// The number of bodies did not match the configured process count.
    WrongProcessCount {
        /// Processes the simulation was created for.
        expected: usize,
        /// Bodies supplied to `run`.
        actual: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ProcessPanicked { pid, message } => {
                write!(f, "simulated process {pid} panicked: {message}")
            }
            SimError::WrongProcessCount { expected, actual } => {
                write!(f, "expected {expected} process bodies, got {actual}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A deterministic simulation of `n` asynchronous processes sharing gated
/// registers.
///
/// Construct the simulation first, install [`Sim::gate`] into the register
/// backend of the object under test, then call [`Sim::run`] with one body
/// closure per process. See the [crate docs](crate) for a complete example.
pub struct Sim {
    n: usize,
    shared: Arc<Shared>,
    trace: Trace,
}

impl Sim {
    /// Creates a simulation of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a simulation needs at least one process");
        install_quiet_abort_hook();
        Sim {
            n,
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    slots: vec![Slot::Busy; n],
                    aborting: false,
                    active: false,
                    panics: Vec::new(),
                }),
                worker_cv: Condvar::new(),
                ctrl_cv: Condvar::new(),
            }),
            trace: Trace::disabled(),
        }
    }

    /// Emits a `schedule_step` event into `trace` for every step the
    /// controller grants, making simulated traces deterministic and
    /// replayable. Share the trace (and its clock) with the object under
    /// test to interleave scheduler grants with algorithm events.
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Number of simulated processes.
    pub fn processes(&self) -> usize {
        self.n
    }

    /// The gate to install into the register backend under test.
    pub fn gate(&self) -> Arc<SimGate> {
        Arc::new(SimGate {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Runs the simulation to completion under `policy`.
    ///
    /// `bodies[i]` is the code of process `i`; it must perform its shared
    /// accesses through registers gated by [`Sim::gate`]. Processes are
    /// started one at a time, each running alone up to its first gated
    /// operation, so even a body's ungated prefix runs in process-id
    /// order. The call returns when every process has finished or been
    /// aborted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessPanicked`] if a body panics for any
    /// reason other than a controller abort, and
    /// [`SimError::WrongProcessCount`] if `bodies.len() != n`.
    pub fn run<'env>(
        self,
        policy: &mut dyn SchedulePolicy,
        config: SimConfig,
        bodies: Vec<Box<dyn FnOnce() + Send + 'env>>,
    ) -> Result<SimReport, SimError> {
        if bodies.len() != self.n {
            return Err(SimError::WrongProcessCount {
                expected: self.n,
                actual: bodies.len(),
            });
        }
        let shared = &self.shared;
        {
            let mut st = shared.lock();
            st.active = true;
            st.slots.iter_mut().for_each(|s| *s = Slot::Busy);
        }

        let stop_set: BTreeSet<usize> = config.stop_when_done.iter().map(|p| p.get()).collect();
        let mut steps: u64 = 0;
        let mut steps_per_process = vec![0u64; self.n];
        let mut trace = Vec::new();

        let halt = std::thread::scope(|scope| {
            for (i, body) in bodies.into_iter().enumerate() {
                let shared = Arc::clone(shared);
                scope.spawn(move || {
                    let result = panic::catch_unwind(AssertUnwindSafe(body));
                    let mut st = shared.lock();
                    match result {
                        Ok(()) => st.slots[i] = Slot::Done,
                        Err(payload) => {
                            st.slots[i] = Slot::Aborted;
                            if !payload.is::<AbortToken>() {
                                let msg = panic_message(&*payload);
                                st.panics.push((i, msg));
                            }
                        }
                    }
                    shared.ctrl_cv.notify_all();
                });
                // Start processes one at a time, each running alone up to
                // its first gated operation: what a body does before that
                // (claiming a handle, taking a recorder timestamp) is then
                // ordered by process id, not by an OS thread race.
                let mut st = self.shared.lock();
                while st.slots[i] == Slot::Busy {
                    st = wait(&self.shared.ctrl_cv, st);
                }
            }

            // Controller loop: wait for quiescence, consult the policy,
            // grant one step, repeat.
            let mut st = shared.lock();
            let halt = loop {
                while st
                    .slots
                    .iter()
                    .any(|s| matches!(s, Slot::Busy | Slot::Granted))
                {
                    st = wait(&shared.ctrl_cv, st);
                }
                if !st.panics.is_empty() {
                    break HaltReason::AllDone; // error surfaced after joining
                }
                if !stop_set.is_empty() && stop_set.iter().all(|&i| st.slots[i] == Slot::Done) {
                    break HaltReason::StopSetDone;
                }
                let ready: Vec<ReadyProcess> = st
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| match s {
                        Slot::Ready(op) => Some(ReadyProcess {
                            pid: ProcessId::new(i),
                            op: *op,
                        }),
                        _ => None,
                    })
                    .collect();
                if ready.is_empty() {
                    break HaltReason::AllDone;
                }
                if config.max_steps.is_some_and(|limit| steps >= limit) {
                    break HaltReason::StepLimit;
                }
                match policy.choose(&ready, steps) {
                    Decision::Run(idx) => {
                        let picked = ready[idx.min(ready.len() - 1)];
                        self.trace.emit(
                            picked.pid.get(),
                            Event::ScheduleStep {
                                step: steps,
                                op: match picked.op {
                                    OpKind::Read => RegOp::Read,
                                    OpKind::Write => RegOp::Write,
                                },
                            },
                        );
                        if config.record_trace {
                            trace.push(StepRecord {
                                step: steps,
                                pid: picked.pid,
                                op: picked.op,
                            });
                        }
                        st.slots[picked.pid.get()] = Slot::Granted;
                        steps += 1;
                        steps_per_process[picked.pid.get()] += 1;
                        shared.worker_cv.notify_all();
                    }
                    Decision::Halt => break HaltReason::PolicyHalt,
                }
            };

            // Tear down: unwind everything still parked or busy.
            st.aborting = true;
            shared.worker_cv.notify_all();
            while st
                .slots
                .iter()
                .any(|s| !matches!(s, Slot::Done | Slot::Aborted))
            {
                st = wait(&shared.ctrl_cv, st);
            }
            st.active = false;
            st.aborting = false;
            halt
        });

        let st = shared.lock();
        if let Some((i, message)) = st.panics.first().cloned() {
            return Err(SimError::ProcessPanicked {
                pid: ProcessId::new(i),
                message,
            });
        }
        let statuses = st
            .slots
            .iter()
            .map(|s| match s {
                Slot::Done => ProcessStatus::Completed,
                _ => ProcessStatus::Aborted,
            })
            .collect();
        Ok(SimReport {
            steps,
            steps_per_process,
            halt,
            statuses,
            trace,
        })
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim").field("processes", &self.n).finish()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FnPolicy, RandomPolicy, ReplayPolicy, RoundRobinPolicy};
    use snapshot_registers::{Backend, EpochBackend, Instrumented, Register};

    fn gated_backend(sim: &Sim) -> Instrumented<EpochBackend> {
        Instrumented::new(EpochBackend::new()).with_gate(sim.gate())
    }

    #[test]
    fn single_process_runs_to_completion() {
        let sim = Sim::new(1);
        let backend = gated_backend(&sim);
        let cell = backend.cell(0u32);
        let report = sim
            .run(
                &mut RoundRobinPolicy::new(),
                SimConfig::default(),
                vec![Box::new(|| {
                    let p = ProcessId::new(0);
                    cell.write(p, 1);
                    assert_eq!(cell.read(p), 1);
                })],
            )
            .unwrap();
        assert_eq!(report.steps, 2);
        assert_eq!(report.halt, HaltReason::AllDone);
        assert!(report.completed(ProcessId::new(0)));
    }

    #[test]
    fn schedule_decides_interleaving_outcome() {
        // Two writers write different values to the same cell; the final
        // value is exactly determined by the schedule.
        for (choices, expect) in [(vec![0, 0], 2u32), (vec![1, 0], 1)] {
            let sim = Sim::new(2);
            let backend = gated_backend(&sim);
            let cell = Arc::new(backend.cell(0u32));
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for p in 0..2 {
                let cell = Arc::clone(&cell);
                bodies.push(Box::new(move || {
                    cell.write(ProcessId::new(p), p as u32 + 1);
                }));
            }
            let mut policy = ReplayPolicy::new(choices);
            sim.run(&mut policy, SimConfig::default(), bodies).unwrap();
            // Gate is inactive after the run; read directly.
            assert_eq!(cell.read(ProcessId::new(0)), expect);
        }
    }

    #[test]
    fn trace_records_grants_in_order() {
        let sim = Sim::new(2);
        let backend = gated_backend(&sim);
        let cell = Arc::new(backend.cell(0u8));
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for p in 0..2 {
            let cell = Arc::clone(&cell);
            bodies.push(Box::new(move || {
                cell.read(ProcessId::new(p));
            }));
        }
        let report = sim
            .run(
                &mut RoundRobinPolicy::new(),
                SimConfig {
                    record_trace: true,
                    ..SimConfig::default()
                },
                bodies,
            )
            .unwrap();
        assert_eq!(report.trace.len(), 2);
        assert_eq!(report.trace[0].pid, ProcessId::new(0));
        assert_eq!(report.trace[1].pid, ProcessId::new(1));
        assert_eq!(report.trace[0].op, OpKind::Read);
    }

    #[test]
    fn per_process_step_counts_sum_to_total() {
        let sim = Sim::new(2);
        let backend = gated_backend(&sim);
        let cell = Arc::new(backend.cell(0u8));
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for (p, reads) in [(0usize, 3usize), (1, 5)] {
            let cell = Arc::clone(&cell);
            bodies.push(Box::new(move || {
                for _ in 0..reads {
                    cell.read(ProcessId::new(p));
                }
            }));
        }
        let report = sim
            .run(&mut RoundRobinPolicy::new(), SimConfig::default(), bodies)
            .unwrap();
        assert_eq!(report.steps_per_process, vec![3, 5]);
        assert_eq!(report.steps_per_process.iter().sum::<u64>(), report.steps);
    }

    #[test]
    fn trace_renders_human_readably() {
        let sim = Sim::new(1);
        let backend = gated_backend(&sim);
        let cell = backend.cell(0u8);
        let report = sim
            .run(
                &mut RoundRobinPolicy::new(),
                SimConfig {
                    record_trace: true,
                    ..SimConfig::default()
                },
                vec![Box::new(|| {
                    cell.write(ProcessId::new(0), 1);
                    cell.read(ProcessId::new(0));
                })],
            )
            .unwrap();
        let text = report.render_trace();
        assert!(text.contains("2 steps"));
        assert!(text.contains("P0 write"));
        assert!(text.contains("P0 read"));
    }

    #[test]
    fn step_limit_aborts_starved_run() {
        // A process that loops on register reads forever is cut off at the
        // step limit and reported Aborted.
        let sim = Sim::new(1);
        let backend = gated_backend(&sim);
        let cell = backend.cell(0u8);
        let report = sim
            .run(
                &mut RoundRobinPolicy::new(),
                SimConfig {
                    max_steps: Some(25),
                    ..SimConfig::default()
                },
                vec![Box::new(|| loop {
                    cell.read(ProcessId::new(0));
                })],
            )
            .unwrap();
        assert_eq!(report.halt, HaltReason::StepLimit);
        assert_eq!(report.steps, 25);
        assert_eq!(report.statuses[0], ProcessStatus::Aborted);
    }

    #[test]
    fn stop_set_halts_after_key_process_finishes() {
        let sim = Sim::new(2);
        let backend = gated_backend(&sim);
        let cell = Arc::new(backend.cell(0u8));
        let c0 = Arc::clone(&cell);
        let c1 = Arc::clone(&cell);
        let bodies: Vec<Box<dyn FnOnce() + Send>> = vec![
            Box::new(move || {
                c0.read(ProcessId::new(0));
            }),
            Box::new(move || loop {
                c1.read(ProcessId::new(1));
            }),
        ];
        // Priority to P0 so it finishes fast; P1 loops forever.
        let mut policy = crate::policy::PriorityPolicy::new([ProcessId::new(0)]);
        let report = sim
            .run(
                &mut policy,
                SimConfig {
                    stop_when_done: vec![ProcessId::new(0)],
                    ..SimConfig::default()
                },
                bodies,
            )
            .unwrap();
        assert_eq!(report.halt, HaltReason::StopSetDone);
        assert!(report.completed(ProcessId::new(0)));
        assert_eq!(report.statuses[1], ProcessStatus::Aborted);
    }

    #[test]
    fn policy_halt_tears_down_cleanly() {
        let sim = Sim::new(2);
        let backend = gated_backend(&sim);
        let cell = Arc::new(backend.cell(0u8));
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for p in 0..2 {
            let cell = Arc::clone(&cell);
            bodies.push(Box::new(move || loop {
                cell.read(ProcessId::new(p));
            }));
        }
        let mut policy = FnPolicy(|_ready: &[ReadyProcess], step| {
            if step < 5 {
                Decision::Run(0)
            } else {
                Decision::Halt
            }
        });
        let report = sim.run(&mut policy, SimConfig::default(), bodies).unwrap();
        assert_eq!(report.halt, HaltReason::PolicyHalt);
        assert_eq!(report.steps, 5);
    }

    #[test]
    fn real_panics_are_reported_not_swallowed() {
        let sim = Sim::new(1);
        let backend = gated_backend(&sim);
        let cell = backend.cell(0u8);
        let err = sim
            .run(
                &mut RoundRobinPolicy::new(),
                SimConfig::default(),
                vec![Box::new(|| {
                    cell.read(ProcessId::new(0));
                    panic!("algorithm bug!");
                })],
            )
            .unwrap_err();
        match err {
            SimError::ProcessPanicked { pid, message } => {
                assert_eq!(pid, ProcessId::new(0));
                assert!(message.contains("algorithm bug"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn wrong_body_count_is_rejected() {
        let sim = Sim::new(2);
        let err = sim
            .run(
                &mut RoundRobinPolicy::new(),
                SimConfig::default(),
                vec![Box::new(|| {})],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::WrongProcessCount {
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let run = |seed| {
            let sim = Sim::new(3);
            let backend = gated_backend(&sim);
            let cell = Arc::new(backend.cell(0u64));
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for p in 0..3 {
                let cell = Arc::clone(&cell);
                bodies.push(Box::new(move || {
                    let pid = ProcessId::new(p);
                    for _ in 0..5 {
                        let v = cell.read(pid);
                        cell.write(pid, v + 1);
                    }
                }));
            }
            let mut policy = RandomPolicy::seeded(seed);
            let report = sim
                .run(
                    &mut policy,
                    SimConfig {
                        record_trace: true,
                        ..SimConfig::default()
                    },
                    bodies,
                )
                .unwrap();
            (report.trace, cell.read(ProcessId::new(0)))
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn gate_is_passthrough_outside_runs() {
        let sim = Sim::new(1);
        let backend = gated_backend(&sim);
        let cell = backend.cell(5u8);
        // No run active: must not block.
        assert_eq!(cell.read(ProcessId::new(0)), 5);
    }
}
