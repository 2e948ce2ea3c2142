//! Property tests for the ABD register emulation: sequential semantics
//! against a last-write model, invariance under minority crash/restart
//! churn, and quorum arithmetic. Each property runs over a fixed number
//! of seeded cases; a failure names its case, and
//! `SeededRng::new(SEED ^ case)` regenerates it.

use std::sync::Arc;
use std::time::Duration;

use snapshot_abd::{
    AbdBackend, AbdRegister, FaultPlan, LinkFault, Network, NetworkConfig, RetryPolicy,
};
use snapshot_registers::{Backend, ProcessId, Register, SeededRng};

#[derive(Clone, Debug)]
enum Op {
    Write {
        pid: usize,
        value: u64,
    },
    Read {
        pid: usize,
    },
    /// Crash replica `index % replicas` if doing so keeps a majority.
    Crash {
        index: usize,
    },
    /// Restart replica `index % replicas`.
    Restart {
        index: usize,
    },
}

/// Fewer than `len` operations: writes and reads by four processes, and
/// crash/restart requests.
fn ops(rng: &mut SeededRng, len: usize) -> Vec<Op> {
    (0..rng.below(len))
        .map(|_| match rng.below(4) {
            0 => Op::Write {
                pid: rng.below(4),
                value: rng.next_u64(),
            },
            1 => Op::Read { pid: rng.below(4) },
            2 => Op::Crash {
                index: rng.below(8),
            },
            _ => Op::Restart {
                index: rng.below(8),
            },
        })
        .collect()
}

#[test]
fn sequential_semantics_survive_crash_restart_churn() {
    for case in 0..32 {
        let mut rng = SeededRng::new(0xC2A5 ^ case);
        let replicas = [3usize, 5][rng.below(2)];
        let init = rng.next_u64();
        let script = ops(&mut rng, 24);
        let network = Arc::new(Network::new(replicas));
        let backend = AbdBackend::new(&network);
        let reg = backend.cell(init);
        let mut model = init;
        let mut crashed = vec![false; replicas];
        let tolerance = network.fault_tolerance();

        for op in script {
            match op {
                Op::Write { pid, value } => {
                    reg.write(ProcessId::new(pid), value);
                    model = value;
                }
                Op::Read { pid } => {
                    assert_eq!(reg.read(ProcessId::new(pid)), model, "case {case}");
                }
                Op::Crash { index } => {
                    let i = index % replicas;
                    let down = crashed.iter().filter(|&&c| c).count();
                    if !crashed[i] && down < tolerance {
                        network.crash(i);
                        crashed[i] = true;
                    }
                }
                Op::Restart { index } => {
                    let i = index % replicas;
                    if crashed[i] {
                        network.restart(i);
                        crashed[i] = false;
                    }
                }
            }
        }
    }
}

#[test]
fn independent_registers_do_not_interfere() {
    for case in 0..32 {
        let mut rng = SeededRng::new(0x12D9 ^ case);
        let network = Arc::new(Network::with_config(NetworkConfig::new(3).with_jitter(1)));
        let backend = AbdBackend::new(&network);
        let regs: Vec<_> = (0..3).map(|i| backend.cell(i as u64)).collect();
        let mut model = [0u64, 1, 2];
        let p = ProcessId::new(0);
        for _ in 0..1 + rng.below(15) {
            let (which, value) = (rng.below(3), rng.next_u64());
            regs[which].write(p, value);
            model[which] = value;
            for (i, r) in regs.iter().enumerate() {
                assert_eq!(r.read(p), model[i], "case {case}");
            }
        }
    }
}

#[test]
fn quorum_is_a_strict_majority() {
    // The whole domain, not a sample of it.
    for replicas in 1usize..12 {
        let network = Network::new(replicas);
        assert!(2 * network.quorum() > replicas, "{replicas} replicas");
        assert!(
            2 * (network.quorum() - 1) <= replicas,
            "{replicas} replicas"
        );
        assert_eq!(
            network.fault_tolerance(),
            replicas - network.quorum(),
            "{replicas} replicas"
        );
    }
}

/// Sequential semantics are *fault-oblivious*: under any seeded mix of
/// message drops, duplicates and reordering (majority still reachable),
/// retransmission plus replica-side dedup must make every operation
/// complete with exactly the last-write model's answer.
#[test]
fn sequential_semantics_survive_a_lossy_network() {
    for case in 0..16 {
        let mut rng = SeededRng::new(0x1055 ^ case);
        let seed = rng.next_u64();
        let (drop, duplicate, reorder) = (
            rng.unit() * 0.35,
            rng.unit() * 0.3,
            rng.unit() * 0.3,
        );
        let fault = LinkFault::healthy()
            .with_drop(drop)
            .with_duplicate(duplicate)
            .with_reorder(reorder, 3)
            .with_reply_drop(drop / 2.0);
        let network = Arc::new(Network::with_config(
            NetworkConfig::new(3)
                .with_jitter(seed)
                .with_faults(FaultPlan::seeded(seed).with_default(fault))
                .with_retry(RetryPolicy {
                    initial_backoff: Duration::from_micros(300),
                    max_backoff: Duration::from_millis(5),
                    multiplier: 2,
                    jitter: 0.5,
                }),
        ));
        let reg = AbdRegister::new(Arc::clone(&network), 0u64);
        for _ in 0..1 + rng.below(11) {
            let (p, value) = (ProcessId::new(rng.below(4)), rng.next_u64());
            reg.try_write(p, value)
                .expect("majority reachable: write completes");
            let got = reg.try_read(p).expect("majority reachable: read completes");
            assert_eq!(got, value, "case {case}");
        }
        assert!(!network.poisoned(), "case {case}");
    }
}
