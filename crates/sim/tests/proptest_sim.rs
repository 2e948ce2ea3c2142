//! Property tests for the deterministic simulator: schedule counting,
//! replay fidelity, and policy behavior. Each property runs over `CASES`
//! seeded cases; a failure names its case, and
//! `SeededRng::new(SEED ^ case)` regenerates it.

use std::sync::Arc;

use snapshot_registers::{Backend, EpochBackend, Instrumented, ProcessId, Register, SeededRng};
use snapshot_sim::{
    ExploreLimits, Explorer, RandomPolicy, ReplayPolicy, RoundRobinPolicy, Sim, SimConfig,
};

const CASES: u64 = 24;

/// `len` draws from `lo..=hi`, `len` itself drawn from `min_len..=max_len`.
fn counts(rng: &mut SeededRng, lo: u64, hi: u64, min_len: u64, max_len: u64) -> Vec<usize> {
    (0..rng.range(min_len..=max_len))
        .map(|_| rng.range(lo..=hi) as usize)
        .collect()
}

/// Runs `counts[i]` register reads on process `i` under `policy`,
/// returning the recorded trace of pids.
fn run_reads(counts: &[usize], policy: &mut dyn snapshot_sim::SchedulePolicy) -> Vec<usize> {
    let n = counts.len();
    let sim = Sim::new(n);
    let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
    let cell = Arc::new(backend.cell(0u8));
    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for (i, &k) in counts.iter().enumerate() {
        let cell = Arc::clone(&cell);
        bodies.push(Box::new(move || {
            for _ in 0..k {
                cell.read(ProcessId::new(i));
            }
        }));
    }
    let report = sim
        .run(
            policy,
            SimConfig {
                record_trace: true,
                ..SimConfig::default()
            },
            bodies,
        )
        .unwrap();
    report.trace.iter().map(|s| s.pid.get()).collect()
}

/// `C(a, b)` via the multiplicative formula.
fn binomial(a: u64, b: u64) -> u64 {
    let b = b.min(a - b);
    let mut num = 1u128;
    let mut den = 1u128;
    for i in 0..b {
        num *= (a - i) as u128;
        den *= (i + 1) as u128;
    }
    (num / den) as u64
}

#[test]
fn explorer_counts_interleavings_exactly() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0xE8B1 ^ case);
        let (a, b) = (1 + rng.below(3), 1 + rng.below(3));
        let mut runs = 0u64;
        let outcome = Explorer::new(ExploreLimits::default())
            .explore::<String>(|policy| {
                run_reads(&[a, b], policy);
                runs += 1;
                Ok(())
            })
            .unwrap();
        assert!(outcome.is_complete(), "case {case}");
        assert_eq!(runs, binomial((a + b) as u64, a as u64), "case {case}");
    }
}

#[test]
fn replaying_a_random_trace_reproduces_it() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x4E91 ^ case);
        let counts = counts(&mut rng, 1, 3, 1, 3);
        let seed = rng.next_u64();
        let trace1 = run_reads(&counts, &mut RandomPolicy::seeded(seed));
        let trace2 = run_reads(&counts, &mut RandomPolicy::seeded(seed));
        assert_eq!(
            trace1, trace2,
            "case {case}: same seed must reproduce the schedule"
        );
    }
}

#[test]
fn replay_policy_is_deterministic() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x4E92 ^ case);
        let counts = counts(&mut rng, 1, 3, 1, 3);
        let choices: Vec<usize> = (0..rng.below(12)).map(|_| rng.below(4)).collect();
        let t1 = run_reads(&counts, &mut ReplayPolicy::new(choices.clone()));
        let t2 = run_reads(&counts, &mut ReplayPolicy::new(choices));
        assert_eq!(t1, t2, "case {case}");
    }
}

#[test]
fn round_robin_trace_is_fair() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x2012 ^ case);
        let counts = counts(&mut rng, 2, 4, 2, 3);
        // Under round robin every grant is accounted for: the trace is as
        // long as the scripts, and process `i` appears exactly
        // `counts[i]` times.
        let trace = run_reads(&counts, &mut RoundRobinPolicy::new());
        assert_eq!(trace.len(), counts.iter().sum::<usize>(), "case {case}");
        for (i, &k) in counts.iter().enumerate() {
            assert_eq!(trace.iter().filter(|&&p| p == i).count(), k, "case {case}");
        }
    }
}

#[test]
fn step_limit_is_exact() {
    for case in 0..CASES {
        let limit = SeededRng::new(0x5719 ^ case).range(1..=19);
        let sim = Sim::new(1);
        let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
        let cell = backend.cell(0u8);
        let report = sim
            .run(
                &mut RoundRobinPolicy::new(),
                SimConfig {
                    max_steps: Some(limit),
                    ..SimConfig::default()
                },
                vec![Box::new(|| loop {
                    cell.read(ProcessId::new(0));
                })],
            )
            .unwrap();
        assert_eq!(report.steps, limit, "case {case}");
    }
}
