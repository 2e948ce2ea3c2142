//! Scripted workload drivers: run any snapshot construction under the
//! deterministic simulator or on real threads, recording a full
//! [`History`] for the linearizability checkers.
//!
//! Update values are auto-generated as `(pid + 1) * 1_000_000 + k` (the
//! `k`-th update of a process), which makes every written value unique —
//! a precondition of the fast interval checker and harmless elsewhere.

use snapshot_core::{MwSnapshot, MwSnapshotHandle, SwSnapshot, SwSnapshotHandle};
use snapshot_lin::{History, Recorder};
use snapshot_registers::{EpochBackend, Instrumented, ProcessId, SeededRng};
use snapshot_sim::{SchedulePolicy, Sim, SimConfig, SimError, SimReport};

/// The backend handed to object builders in the simulator runners: the
/// default lock-free registers, gated on the simulation scheduler.
pub type GatedBackend = Instrumented<EpochBackend>;

/// One step of a single-writer process script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwStep {
    /// Update the own segment with the next auto-generated value.
    Update,
    /// Scan and record the view.
    Scan,
}

/// One step of a multi-writer process script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MwStep {
    /// Update the given word with the next auto-generated value.
    Update(usize),
    /// Scan and record the view.
    Scan,
}

/// The auto-generated value of process `pid`'s `k`-th update (`k >= 1`).
pub fn value_for(pid: ProcessId, k: u64) -> u64 {
    (pid.get() as u64 + 1) * 1_000_000 + k
}

/// Scripts where every process alternates `Update; Scan` for `rounds`
/// rounds.
pub fn sw_mixed_scripts(n: usize, rounds: usize) -> Vec<Vec<SwStep>> {
    (0..n)
        .map(|_| {
            (0..rounds)
                .flat_map(|_| [SwStep::Update, SwStep::Scan])
                .collect()
        })
        .collect()
}

/// Scripts where the first `n - 1` processes only update and the last only
/// scans — the scanner-vs-updaters shape of the starvation experiments.
pub fn sw_scanner_vs_updaters(n: usize, updates: usize, scans: usize) -> Vec<Vec<SwStep>> {
    assert!(n >= 2, "need at least one updater and one scanner");
    let mut scripts: Vec<Vec<SwStep>> = (0..n - 1).map(|_| vec![SwStep::Update; updates]).collect();
    scripts.push(vec![SwStep::Scan; scans]);
    scripts
}

/// Seeded random single-writer scripts with `len` steps per process and
/// the given probability of a step being an update.
pub fn sw_random_scripts(n: usize, len: usize, update_prob: f64, seed: u64) -> Vec<Vec<SwStep>> {
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|_| {
            (0..len)
                .map(|_| {
                    if rng.chance(update_prob) {
                        SwStep::Update
                    } else {
                        SwStep::Scan
                    }
                })
                .collect()
        })
        .collect()
}

/// Multi-writer scripts where process `i` owns word `i` (requires
/// `m >= n`): per-word updates stay totally ordered, so the interval
/// checker applies.
pub fn mw_disjoint_scripts(n: usize, m: usize, rounds: usize) -> Vec<Vec<MwStep>> {
    assert!(
        m >= n,
        "disjoint scripts need at least one word per process"
    );
    (0..n)
        .map(|i| {
            (0..rounds)
                .flat_map(|_| [MwStep::Update(i), MwStep::Scan])
                .collect()
        })
        .collect()
}

/// Seeded random multi-writer scripts where every process writes random
/// words (contended; check with Wing–Gong only).
pub fn mw_contended_scripts(
    n: usize,
    m: usize,
    len: usize,
    update_prob: f64,
    seed: u64,
) -> Vec<Vec<MwStep>> {
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|_| {
            (0..len)
                .map(|_| {
                    if rng.chance(update_prob) {
                        MwStep::Update(rng.below(m))
                    } else {
                        MwStep::Scan
                    }
                })
                .collect()
        })
        .collect()
}

/// Records a pending update if the operation unwinds (simulator abort)
/// before completing.
struct UpdateGuard<'a> {
    rec: &'a Recorder<u64>,
    pid: ProcessId,
    word: usize,
    value: u64,
    inv: u64,
    done: bool,
}

impl UpdateGuard<'_> {
    fn complete(mut self) {
        self.rec
            .end_update(self.pid, self.word, self.value, self.inv);
        self.done = true;
    }
}

impl Drop for UpdateGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.rec
                .pending_update(self.pid, self.word, self.value, self.inv);
        }
    }
}

/// Runs a single-writer workload under the deterministic simulator.
///
/// `build` constructs the object over the gated backend; each process then
/// executes its script, and every operation is recorded. Returns the
/// history (including updates left pending by aborted processes) and the
/// simulator's report.
///
/// # Errors
///
/// Propagates [`SimError`] (a panicking process body or a body-count
/// mismatch).
pub fn run_sw_sim<O, F>(
    n: usize,
    scripts: &[Vec<SwStep>],
    policy: &mut dyn SchedulePolicy,
    config: SimConfig,
    build: F,
) -> Result<(History<u64>, SimReport), SimError>
where
    O: SwSnapshot<u64>,
    F: FnOnce(&GatedBackend) -> O,
{
    assert_eq!(scripts.len(), n, "one script per process");
    let sim = Sim::new(n);
    let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
    let object = build(&backend);
    let recorder = Recorder::new(n, n, 0u64);

    let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(n);
    for (i, script) in scripts.iter().enumerate() {
        let object = &object;
        let recorder = &recorder;
        let script = script.clone();
        bodies.push(Box::new(move || {
            let pid = ProcessId::new(i);
            let mut handle = object.handle(pid);
            let mut k = 0u64;
            for step in script {
                match step {
                    SwStep::Update => {
                        k += 1;
                        let value = value_for(pid, k);
                        let inv = recorder.begin();
                        let guard = UpdateGuard {
                            rec: recorder,
                            pid,
                            word: i,
                            value,
                            inv,
                            done: false,
                        };
                        handle.update(value);
                        guard.complete();
                    }
                    SwStep::Scan => {
                        let inv = recorder.begin();
                        let view = handle.scan();
                        recorder.end_scan(pid, view.to_vec(), inv);
                    }
                }
            }
        }));
    }

    let report = sim.run(policy, config, bodies)?;
    Ok((recorder.finish(), report))
}

/// Runs a multi-writer workload under the deterministic simulator; the
/// multi-writer analogue of [`run_sw_sim`].
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn run_mw_sim<O, F>(
    n: usize,
    m: usize,
    scripts: &[Vec<MwStep>],
    policy: &mut dyn SchedulePolicy,
    config: SimConfig,
    build: F,
) -> Result<(History<u64>, SimReport), SimError>
where
    O: MwSnapshot<u64>,
    F: FnOnce(&GatedBackend) -> O,
{
    assert_eq!(scripts.len(), n, "one script per process");
    let sim = Sim::new(n);
    let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
    let object = build(&backend);
    let recorder = Recorder::new(n, m, 0u64);

    let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(n);
    for (i, script) in scripts.iter().enumerate() {
        let object = &object;
        let recorder = &recorder;
        let script = script.clone();
        bodies.push(Box::new(move || {
            let pid = ProcessId::new(i);
            let mut handle = object.handle(pid);
            let mut k = 0u64;
            for step in script {
                match step {
                    MwStep::Update(word) => {
                        k += 1;
                        let value = value_for(pid, k);
                        let inv = recorder.begin();
                        let guard = UpdateGuard {
                            rec: recorder,
                            pid,
                            word,
                            value,
                            inv,
                            done: false,
                        };
                        handle.update(word, value);
                        guard.complete();
                    }
                    MwStep::Scan => {
                        let inv = recorder.begin();
                        let view = handle.scan();
                        recorder.end_scan(pid, view.to_vec(), inv);
                    }
                }
            }
        }));
    }

    let report = sim.run(policy, config, bodies)?;
    Ok((recorder.finish(), report))
}

/// Runs a single-writer workload on real OS threads against an
/// already-constructed object, recording the history.
pub fn run_sw_threaded<O: SwSnapshot<u64>>(object: &O, scripts: &[Vec<SwStep>]) -> History<u64> {
    let n = object.processes();
    assert_eq!(scripts.len(), n, "one script per process");
    let recorder = Recorder::new(n, n, 0u64);
    std::thread::scope(|s| {
        for (i, script) in scripts.iter().enumerate() {
            let recorder = &recorder;
            s.spawn(move || {
                let pid = ProcessId::new(i);
                let mut handle = object.handle(pid);
                let mut k = 0u64;
                for step in script {
                    match step {
                        SwStep::Update => {
                            k += 1;
                            let value = value_for(pid, k);
                            let inv = recorder.begin();
                            handle.update(value);
                            recorder.end_update(pid, i, value, inv);
                        }
                        SwStep::Scan => {
                            let inv = recorder.begin();
                            let view = handle.scan();
                            recorder.end_scan(pid, view.to_vec(), inv);
                        }
                    }
                }
            });
        }
    });
    recorder.finish()
}

/// Runs a multi-writer workload on real OS threads; multi-writer analogue
/// of [`run_sw_threaded`].
pub fn run_mw_threaded<O: MwSnapshot<u64>>(object: &O, scripts: &[Vec<MwStep>]) -> History<u64> {
    let n = object.processes();
    let m = object.words();
    assert_eq!(scripts.len(), n, "one script per process");
    let recorder = Recorder::new(n, m, 0u64);
    std::thread::scope(|s| {
        for (i, script) in scripts.iter().enumerate() {
            let recorder = &recorder;
            s.spawn(move || {
                let pid = ProcessId::new(i);
                let mut handle = object.handle(pid);
                let mut k = 0u64;
                for step in script {
                    match step {
                        MwStep::Update(word) => {
                            k += 1;
                            let value = value_for(pid, k);
                            let inv = recorder.begin();
                            handle.update(*word, value);
                            recorder.end_update(pid, *word, value, inv);
                        }
                        MwStep::Scan => {
                            let inv = recorder.begin();
                            let view = handle.scan();
                            recorder.end_scan(pid, view.to_vec(), inv);
                        }
                    }
                }
            });
        }
    });
    recorder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapshot_core::{BoundedSnapshot, UnboundedSnapshot};
    use snapshot_lin::{check_history, check_intervals};
    use snapshot_sim::RandomPolicy;

    #[test]
    fn sim_run_produces_checkable_history() {
        let n = 2;
        let scripts = sw_mixed_scripts(n, 2);
        let (history, report) = run_sw_sim(
            n,
            &scripts,
            &mut RandomPolicy::seeded(3),
            SimConfig::default(),
            |b| UnboundedSnapshot::with_backend(n, 0u64, b),
        )
        .unwrap();
        assert!(report
            .statuses
            .iter()
            .all(|s| matches!(s, snapshot_sim::ProcessStatus::Completed)));
        assert_eq!(history.len(), 8); // 2 procs x 2 rounds x (update+scan)
        assert!(check_history(&history).is_linearizable());
        assert_eq!(check_intervals(&history), Ok(()));
    }

    #[test]
    fn threaded_run_produces_checkable_history() {
        let n = 3;
        let object = BoundedSnapshot::new(n, 0u64);
        let history = run_sw_threaded(&object, &sw_mixed_scripts(n, 20));
        assert_eq!(history.len(), n * 40);
        assert_eq!(check_intervals(&history), Ok(()));
    }

    #[test]
    fn script_generators_have_expected_shapes() {
        let s = sw_scanner_vs_updaters(3, 5, 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], vec![SwStep::Update; 5]);
        assert_eq!(s[2], vec![SwStep::Scan; 2]);

        let r = sw_random_scripts(2, 10, 0.5, 42);
        assert_eq!(r[0].len(), 10);
        assert_eq!(r, sw_random_scripts(2, 10, 0.5, 42)); // deterministic

        let d = mw_disjoint_scripts(2, 3, 1);
        assert_eq!(d[1][0], MwStep::Update(1));
    }

    #[test]
    fn values_are_globally_unique() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for pid in 0..8 {
            for k in 1..1000 {
                assert!(seen.insert(value_for(ProcessId::new(pid), k)));
            }
        }
    }
}
