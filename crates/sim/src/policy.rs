use std::collections::HashMap;
use std::fmt;

use snapshot_registers::{OpKind, ProcessId, SeededRng};

/// A process parked at the gate, waiting to perform one register operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyProcess {
    /// The parked process.
    pub pid: ProcessId,
    /// The operation it will perform when granted.
    pub op: OpKind,
}

/// A scheduling decision for one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Grant a step to `ready[index]`.
    Run(usize),
    /// Stop the run now; all live processes are aborted.
    Halt,
}

/// The adversary: decides, at every step, which parked process runs next.
///
/// The `ready` slice is never empty and is ordered by process id. `step` is
/// the number of grants issued so far, so policies can phase their behavior.
pub trait SchedulePolicy: Send {
    /// Chooses the next process to grant a step to.
    fn choose(&mut self, ready: &[ReadyProcess], step: u64) -> Decision;
}

impl<P: SchedulePolicy + ?Sized> SchedulePolicy for &mut P {
    fn choose(&mut self, ready: &[ReadyProcess], step: u64) -> Decision {
        (**self).choose(ready, step)
    }
}

/// Uniformly random scheduling from a seed; the workhorse for reproducible
/// randomized stress runs.
///
/// # Example
///
/// ```
/// use snapshot_sim::{RandomPolicy, SchedulePolicy};
/// let mut p = RandomPolicy::seeded(42);
/// // Same seed, same decisions.
/// let mut q = RandomPolicy::seeded(42);
/// # use snapshot_registers::{OpKind, ProcessId};
/// # use snapshot_sim::ReadyProcess;
/// let ready = [
///     ReadyProcess { pid: ProcessId::new(0), op: OpKind::Read },
///     ReadyProcess { pid: ProcessId::new(1), op: OpKind::Write },
/// ];
/// assert_eq!(p.choose(&ready, 0), q.choose(&ready, 0));
/// ```
pub struct RandomPolicy {
    rng: SeededRng,
}

impl RandomPolicy {
    /// Creates a policy from an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        RandomPolicy {
            rng: SeededRng::new(seed),
        }
    }
}

impl SchedulePolicy for RandomPolicy {
    fn choose(&mut self, ready: &[ReadyProcess], _step: u64) -> Decision {
        Decision::Run(self.rng.below(ready.len()))
    }
}

impl fmt::Debug for RandomPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RandomPolicy")
    }
}

/// Fair round-robin scheduling: repeatedly cycles through process ids.
///
/// Under this policy every parked process is granted a step within `n`
/// grants — the friendliest scheduler, useful as a baseline against the
/// starvation adversaries.
#[derive(Debug, Default)]
pub struct RoundRobinPolicy {
    next: usize,
}

impl RoundRobinPolicy {
    /// Creates a round-robin policy starting at process 0.
    pub fn new() -> Self {
        RoundRobinPolicy::default()
    }
}

impl SchedulePolicy for RoundRobinPolicy {
    fn choose(&mut self, ready: &[ReadyProcess], _step: u64) -> Decision {
        // Grant the first ready process with pid >= next (cyclically).
        let pick = ready
            .iter()
            .position(|r| r.pid.get() >= self.next)
            .unwrap_or(0);
        self.next = ready[pick].pid.get() + 1;
        Decision::Run(pick)
    }
}

/// A strict-priority adversary: always runs the ready process that appears
/// earliest in the priority order.
///
/// Putting the updaters ahead of a scanner yields the classic starvation
/// adversary of Observation 1/2 in the paper: a plain double-collect
/// scanner never completes, while the paper's algorithms finish within
/// their pigeonhole bounds.
#[derive(Debug)]
pub struct PriorityPolicy {
    rank: HashMap<usize, usize>,
}

impl PriorityPolicy {
    /// Creates a policy preferring processes in the order of `order`
    /// (first = highest priority). Processes not listed rank last, by id.
    pub fn new<I: IntoIterator<Item = ProcessId>>(order: I) -> Self {
        PriorityPolicy {
            rank: order
                .into_iter()
                .enumerate()
                .map(|(rank, pid)| (pid.get(), rank))
                .collect(),
        }
    }

    fn rank_of(&self, pid: ProcessId) -> (usize, usize) {
        match self.rank.get(&pid.get()) {
            Some(&r) => (r, pid.get()),
            None => (usize::MAX, pid.get()),
        }
    }
}

impl SchedulePolicy for PriorityPolicy {
    fn choose(&mut self, ready: &[ReadyProcess], _step: u64) -> Decision {
        let pick = (0..ready.len())
            .min_by_key(|&i| self.rank_of(ready[i].pid))
            .expect("ready is never empty");
        Decision::Run(pick)
    }
}

/// Replays an explicit sequence of ready-set indices; used by the
/// systematic explorer and for pinning down regression schedules.
///
/// When the recorded choices are exhausted the policy falls back to always
/// choosing index 0 (deterministic continuation). Out-of-range recorded
/// choices are clamped to the ready set.
#[derive(Debug, Default)]
pub struct ReplayPolicy {
    choices: Vec<usize>,
    cursor: usize,
    /// Arity (ready-set size) observed at each decision, recorded for the
    /// explorer's backtracking.
    arities: Vec<usize>,
}

impl ReplayPolicy {
    /// Creates a replay policy from recorded choices.
    pub fn new(choices: Vec<usize>) -> Self {
        ReplayPolicy {
            choices,
            cursor: 0,
            arities: Vec::new(),
        }
    }

    /// The choices taken so far, including fallback zeros appended past the
    /// original recording.
    pub fn taken(&self) -> &[usize] {
        &self.choices[..self.cursor.min(self.choices.len())]
    }

    /// The ready-set size observed at each decision point.
    pub fn arities(&self) -> &[usize] {
        &self.arities
    }

    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<usize>) {
        (self.choices, self.arities)
    }
}

impl SchedulePolicy for ReplayPolicy {
    fn choose(&mut self, ready: &[ReadyProcess], _step: u64) -> Decision {
        let idx = if self.cursor < self.choices.len() {
            self.choices[self.cursor].min(ready.len() - 1)
        } else {
            self.choices.push(0);
            0
        };
        self.cursor += 1;
        self.arities.push(ready.len());
        Decision::Run(idx)
    }
}

/// Crash injection: wraps another policy and permanently stops scheduling a
/// process after it has received a given number of grants.
///
/// A crashed process simply never takes another step — exactly the paper's
/// failure model, under which wait-free operations of *other* processes
/// must still terminate. If only crashed processes remain ready, the run
/// halts.
///
/// # Example
///
/// ```
/// use snapshot_registers::ProcessId;
/// use snapshot_sim::{CrashPolicy, RoundRobinPolicy};
///
/// // P1 crashes after its 3rd step.
/// let policy = CrashPolicy::new(RoundRobinPolicy::new())
///     .crash_after(ProcessId::new(1), 3);
/// # let _ = policy;
/// ```
#[derive(Debug)]
pub struct CrashPolicy<P> {
    inner: P,
    budgets: HashMap<usize, u64>,
    granted: HashMap<usize, u64>,
}

impl<P: SchedulePolicy> CrashPolicy<P> {
    /// Wraps `inner` with no crashes configured.
    pub fn new(inner: P) -> Self {
        CrashPolicy {
            inner,
            budgets: HashMap::new(),
            granted: HashMap::new(),
        }
    }

    /// Crashes `pid` once it has been granted `steps` steps.
    pub fn crash_after(mut self, pid: ProcessId, steps: u64) -> Self {
        self.budgets.insert(pid.get(), steps);
        self
    }

    fn crashed(&self, pid: ProcessId) -> bool {
        match self.budgets.get(&pid.get()) {
            Some(&budget) => self.granted.get(&pid.get()).copied().unwrap_or(0) >= budget,
            None => false,
        }
    }
}

impl<P: SchedulePolicy> SchedulePolicy for CrashPolicy<P> {
    fn choose(&mut self, ready: &[ReadyProcess], step: u64) -> Decision {
        let live: Vec<(usize, ReadyProcess)> = ready
            .iter()
            .enumerate()
            .filter(|(_, r)| !self.crashed(r.pid))
            .map(|(i, r)| (i, *r))
            .collect();
        if live.is_empty() {
            return Decision::Halt;
        }
        let live_ready: Vec<ReadyProcess> = live.iter().map(|(_, r)| *r).collect();
        match self.inner.choose(&live_ready, step) {
            Decision::Run(i) => {
                let (orig_idx, picked) = live[i.min(live.len() - 1)];
                *self.granted.entry(picked.pid.get()).or_insert(0) += 1;
                Decision::Run(orig_idx)
            }
            Decision::Halt => Decision::Halt,
        }
    }
}

/// An adversary that prefers processes about to perform a given kind of
/// operation, delegating tie-breaks to an inner policy.
///
/// Scheduling *writers* preferentially maximizes interference with
/// scanners' double collects — empirically the strongest generic
/// adversary for driving the snapshot algorithms toward their pigeonhole
/// worst case (used by experiment E1 alongside round-robin and random).
#[derive(Debug)]
pub struct OpBiasPolicy<P> {
    prefer: OpKind,
    inner: P,
}

impl<P: SchedulePolicy> OpBiasPolicy<P> {
    /// Prefers processes whose next operation is `prefer`; among those
    /// (or among all, when none match) defers to `inner`.
    pub fn new(prefer: OpKind, inner: P) -> Self {
        OpBiasPolicy { prefer, inner }
    }
}

impl<P: SchedulePolicy> SchedulePolicy for OpBiasPolicy<P> {
    fn choose(&mut self, ready: &[ReadyProcess], step: u64) -> Decision {
        let preferred: Vec<(usize, ReadyProcess)> = ready
            .iter()
            .enumerate()
            .filter(|(_, r)| r.op == self.prefer)
            .map(|(i, r)| (i, *r))
            .collect();
        if preferred.is_empty() {
            return self.inner.choose(ready, step);
        }
        let subset: Vec<ReadyProcess> = preferred.iter().map(|(_, r)| *r).collect();
        match self.inner.choose(&subset, step) {
            Decision::Run(i) => Decision::Run(preferred[i.min(preferred.len() - 1)].0),
            Decision::Halt => Decision::Halt,
        }
    }
}

/// Adapts a closure into a [`SchedulePolicy`], for one-off adversaries in
/// tests.
pub struct FnPolicy<F>(pub F);

impl<F: FnMut(&[ReadyProcess], u64) -> Decision + Send> SchedulePolicy for FnPolicy<F> {
    fn choose(&mut self, ready: &[ReadyProcess], step: u64) -> Decision {
        (self.0)(ready, step)
    }
}

impl<F> fmt::Debug for FnPolicy<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FnPolicy")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(pids: &[usize]) -> Vec<ReadyProcess> {
        pids.iter()
            .map(|&p| ReadyProcess {
                pid: ProcessId::new(p),
                op: OpKind::Read,
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_fairly() {
        let mut p = RoundRobinPolicy::new();
        let r = ready(&[0, 1, 2]);
        let picks: Vec<_> = (0..6).map(|s| p.choose(&r, s)).collect();
        assert_eq!(
            picks,
            vec![
                Decision::Run(0),
                Decision::Run(1),
                Decision::Run(2),
                Decision::Run(0),
                Decision::Run(1),
                Decision::Run(2)
            ]
        );
    }

    #[test]
    fn round_robin_skips_missing_processes() {
        let mut p = RoundRobinPolicy::new();
        assert_eq!(p.choose(&ready(&[1, 3]), 0), Decision::Run(0)); // P1
        assert_eq!(p.choose(&ready(&[1, 3]), 1), Decision::Run(1)); // P3
        assert_eq!(p.choose(&ready(&[1, 3]), 2), Decision::Run(0)); // wraps to P1
    }

    #[test]
    fn priority_always_prefers_top_ranked() {
        let mut p = PriorityPolicy::new([ProcessId::new(2), ProcessId::new(0)]);
        assert_eq!(p.choose(&ready(&[0, 1, 2]), 0), Decision::Run(2));
        assert_eq!(p.choose(&ready(&[0, 1]), 1), Decision::Run(0));
        // Unlisted processes rank last, ordered by id.
        assert_eq!(p.choose(&ready(&[1, 3]), 2), Decision::Run(0));
    }

    #[test]
    fn replay_follows_choices_then_falls_back_to_zero() {
        let mut p = ReplayPolicy::new(vec![1, 0]);
        assert_eq!(p.choose(&ready(&[0, 1]), 0), Decision::Run(1));
        assert_eq!(p.choose(&ready(&[0, 1]), 1), Decision::Run(0));
        assert_eq!(p.choose(&ready(&[0, 1]), 2), Decision::Run(0));
        assert_eq!(p.arities(), &[2, 2, 2]);
    }

    #[test]
    fn replay_clamps_out_of_range_choices() {
        let mut p = ReplayPolicy::new(vec![7]);
        assert_eq!(p.choose(&ready(&[0, 1]), 0), Decision::Run(1));
    }

    #[test]
    fn crash_policy_excludes_after_budget() {
        let mut p = CrashPolicy::new(PriorityPolicy::new([ProcessId::new(0)]))
            .crash_after(ProcessId::new(0), 2);
        let r = ready(&[0, 1]);
        assert_eq!(p.choose(&r, 0), Decision::Run(0));
        assert_eq!(p.choose(&r, 1), Decision::Run(0));
        // P0 now crashed: the priority policy only sees P1.
        assert_eq!(p.choose(&r, 2), Decision::Run(1));
        // Only crashed processes ready -> halt.
        assert_eq!(p.choose(&ready(&[0]), 3), Decision::Halt);
    }

    #[test]
    fn op_bias_prefers_matching_ops() {
        let mut p = OpBiasPolicy::new(OpKind::Write, RoundRobinPolicy::new());
        let mixed = [
            ReadyProcess {
                pid: ProcessId::new(0),
                op: OpKind::Read,
            },
            ReadyProcess {
                pid: ProcessId::new(1),
                op: OpKind::Write,
            },
            ReadyProcess {
                pid: ProcessId::new(2),
                op: OpKind::Write,
            },
        ];
        // Only writers are eligible; round robin cycles among them.
        assert_eq!(p.choose(&mixed, 0), Decision::Run(1));
        assert_eq!(p.choose(&mixed, 1), Decision::Run(2));
        assert_eq!(p.choose(&mixed, 2), Decision::Run(1));
        // No writer ready: falls through to the inner policy over all.
        let readers = ready(&[0, 1]);
        assert!(matches!(p.choose(&readers, 3), Decision::Run(_)));
    }

    #[test]
    fn random_policy_is_reproducible() {
        let r = ready(&[0, 1, 2, 3]);
        let a: Vec<_> = {
            let mut p = RandomPolicy::seeded(7);
            (0..20).map(|s| p.choose(&r, s)).collect()
        };
        let b: Vec<_> = {
            let mut p = RandomPolicy::seeded(7);
            (0..20).map(|s| p.choose(&r, s)).collect()
        };
        assert_eq!(a, b);
    }
}
