//! Exhaustive model checking of the MWMR-from-SWMR register construction
//! itself: every schedule of small read/write workloads over gated
//! single-writer cells, each history checked against the sequential
//! register specification. This discharges the atomicity assumption the
//! compound construction of Section 6 rests on.

use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use snapshot_lin::{check_linearizable, RegisterOp, RegisterSpec, WgOp};
use snapshot_registers::{EpochBackend, Instrumented, MwmrFromSwmr, ProcessId, Register};
use snapshot_sim::{ExploreLimits, Explorer, RandomPolicy, Sim, SimConfig};

/// A poisoned lock yields its guard: simulated bodies may panic on
/// purpose, and what they logged before that is still wanted.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Clone, Copy, Debug)]
enum Step {
    Write(u64),
    Read,
}

/// Runs the scripts over a gated `MwmrFromSwmr` register under `policy`;
/// returns the recorded register history.
fn run_register(
    scripts: &[Vec<Step>],
    policy: &mut dyn snapshot_sim::SchedulePolicy,
) -> Result<Vec<WgOp<RegisterOp<u64>>>, String> {
    let n = scripts.len();
    let sim = Sim::new(n);
    let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
    let reg = MwmrFromSwmr::new(&backend, n, 0u64);
    let clock = std::sync::atomic::AtomicU64::new(0);
    let ops: Arc<Mutex<Vec<WgOp<RegisterOp<u64>>>>> = Arc::new(Mutex::new(Vec::new()));

    let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    for (i, script) in scripts.iter().enumerate() {
        let reg = &reg;
        let clock = &clock;
        let ops = Arc::clone(&ops);
        let script = script.clone();
        bodies.push(Box::new(move || {
            use std::sync::atomic::Ordering;
            let pid = ProcessId::new(i);
            for step in script {
                match step {
                    Step::Write(value) => {
                        let inv = clock.fetch_add(1, Ordering::SeqCst);
                        reg.write(pid, value);
                        let res = clock.fetch_add(1, Ordering::SeqCst);
                        lock(&ops).push(WgOp {
                            pid,
                            inv,
                            res: Some(res),
                            op: RegisterOp::Write { value },
                        });
                    }
                    Step::Read => {
                        let inv = clock.fetch_add(1, Ordering::SeqCst);
                        let value = reg.read(pid);
                        let res = clock.fetch_add(1, Ordering::SeqCst);
                        lock(&ops).push(WgOp {
                            pid,
                            inv,
                            res: Some(res),
                            op: RegisterOp::Read { value },
                        });
                    }
                }
            }
        }));
    }
    sim.run(policy, SimConfig::default(), bodies)
        .map_err(|e| e.to_string())?;
    Ok(Arc::try_unwrap(ops).unwrap().into_inner().unwrap_or_else(PoisonError::into_inner))
}

fn explore(scripts: Vec<Vec<Step>>, max_runs: u64) -> (u64, bool) {
    let mut runs = 0u64;
    let outcome = Explorer::new(ExploreLimits {
        max_runs,
        max_depth: 4096,
    })
    .explore::<String>(|policy| {
        let ops = run_register(&scripts, policy)?;
        if !check_linearizable(&RegisterSpec::new(0u64), &ops).is_linearizable() {
            return Err(format!("register history not linearizable: {ops:?}"));
        }
        runs += 1;
        Ok(())
    })
    .unwrap_or_else(|e| panic!("exploration failed: {e}"));
    (runs, outcome.is_complete())
}

#[test]
fn write_vs_read_fully_explored() {
    let (runs, complete) = explore(
        vec![vec![Step::Write(7)], vec![Step::Read]],
        100_000,
    );
    assert!(complete, "covered only {runs} runs");
    assert!(runs > 10);
}

#[test]
fn write_vs_write_vs_read_budgeted() {
    // The new/old-inversion scenario needs two writers racing a reader.
    let (runs, _) = explore(
        vec![
            vec![Step::Write(1)],
            vec![Step::Write(2)],
            vec![Step::Read, Step::Read],
        ],
        15_000,
    );
    assert!(runs > 4_000, "covered only {runs} runs");
}

#[test]
fn double_read_monotonicity_fully_explored() {
    // A reader reading twice against one writer: the second read must not
    // regress (this is exactly what the write-back phase guarantees).
    let (runs, complete) = explore(
        vec![vec![Step::Write(9)], vec![Step::Read, Step::Read]],
        100_000,
    );
    assert!(complete, "covered only {runs} runs");
}

#[test]
fn random_deep_schedules_stay_linearizable() {
    let scripts = vec![
        vec![Step::Write(1), Step::Read, Step::Write(3)],
        vec![Step::Read, Step::Write(2), Step::Read],
        vec![Step::Read, Step::Read],
    ];
    for seed in 0..200u64 {
        let ops = run_register(&scripts, &mut RandomPolicy::seeded(seed)).unwrap();
        assert!(
            check_linearizable(&RegisterSpec::new(0u64), &ops).is_linearizable(),
            "seed {seed}: {ops:?}"
        );
    }
}
