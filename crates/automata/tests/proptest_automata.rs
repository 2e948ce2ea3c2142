//! Property tests for the specification automata: serial executions
//! generated against a reference memory model are accepted; mutations
//! that break the semantics are rejected. Each property runs over `CASES`
//! seeded cases; a failure names its case, and
//! `SeededRng::new(SEED ^ case)` regenerates it.

use snapshot_automata::{
    accepts, check_well_formed, ExternalEvent, Mws, MwsAction, Sws, SwsAction,
};
use snapshot_registers::{ProcessId, SeededRng};

const CASES: u64 = 128;

#[derive(Clone, Debug)]
enum SerialOp {
    Update { pid: usize, value: u64 },
    Scan { pid: usize },
}

/// Fewer than `len` operations by processes `0..max_procs`.
fn serial_ops(rng: &mut SeededRng, max_procs: usize, len: usize) -> Vec<SerialOp> {
    (0..rng.below(len))
        .map(|_| {
            let pid = rng.below(max_procs);
            if rng.chance(0.5) {
                SerialOp::Update {
                    pid,
                    value: rng.next_u64(),
                }
            } else {
                SerialOp::Scan { pid }
            }
        })
        .collect()
}

/// Expands serial ops into full SWS action triples, tracking the memory
/// model to produce correct scan views.
fn sws_actions(n: usize, ops: &[SerialOp]) -> Vec<SwsAction<u64>> {
    let mut mem = vec![0u64; n];
    let mut actions = Vec::new();
    for op in ops {
        match op {
            SerialOp::Update { pid, value } => {
                let pid = ProcessId::new(pid % n);
                mem[pid.get()] = *value;
                actions.push(SwsAction::UpdateRequest { pid, value: *value });
                actions.push(SwsAction::Update { pid, value: *value });
                actions.push(SwsAction::UpdateReturn { pid });
            }
            SerialOp::Scan { pid } => {
                let pid = ProcessId::new(pid % n);
                actions.push(SwsAction::ScanRequest { pid });
                actions.push(SwsAction::Scan {
                    pid,
                    view: mem.clone(),
                });
                actions.push(SwsAction::ScanReturn {
                    pid,
                    view: mem.clone(),
                });
            }
        }
    }
    actions
}

#[test]
fn serial_executions_are_accepted_by_sws() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x5E21 ^ case);
        let n = 1 + rng.below(4);
        let ops = serial_ops(&mut rng, 5, 20);
        let sws = Sws::new(n, 0u64);
        assert!(accepts(&sws, &sws_actions(n, &ops)), "case {case}");
    }
}

#[test]
fn corrupted_scan_views_are_rejected_by_sws() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0xC022 ^ case);
        let n = 1 + rng.below(4);
        let mut ops = serial_ops(&mut rng, 5, 20);
        // The property needs a scan to corrupt.
        ops.push(SerialOp::Scan { pid: rng.below(5) });
        let delta = rng.range(1..=99);
        let mut actions = sws_actions(n, &ops);
        let scan_positions: Vec<usize> = actions
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, SwsAction::Scan { .. }))
            .map(|(i, _)| i)
            .collect();
        let target = scan_positions[rng.below(scan_positions.len())];
        if let SwsAction::Scan { view, .. } = &mut actions[target] {
            view[0] = view[0].wrapping_add(delta);
        }
        // The matching ScanReturn still carries the old (correct) view, so
        // either the Scan is disabled (wrong memory) or the return
        // mismatches: rejected both ways.
        let sws = Sws::new(n, 0u64);
        assert!(!accepts(&sws, &actions), "case {case}");
    }
}

#[test]
fn dropped_internal_actions_are_rejected() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0xD209 ^ case);
        let n = 1 + rng.below(3);
        let mut ops = serial_ops(&mut rng, 4, 10);
        // The property needs an internal action to drop.
        ops.push(SerialOp::Scan { pid: rng.below(4) });
        let actions = sws_actions(n, &ops);
        let internal_positions: Vec<usize> = actions
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_internal())
            .map(|(i, _)| i)
            .collect();
        let target = internal_positions[rng.below(internal_positions.len())];
        let mut mutated = actions.clone();
        mutated.remove(target);
        let sws = Sws::new(n, 0u64);
        assert!(!accepts(&sws, &mutated), "case {case}");
    }
}

#[test]
fn serial_multiwriter_executions_are_accepted_by_mws() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x3352 ^ case);
        let (n, m) = (1 + rng.below(3), 1 + rng.below(3));
        let mws = Mws::new(n, m, 0u64);
        let mut mem = vec![0u64; m];
        let mut actions = Vec::new();
        for _ in 0..rng.below(16) {
            let pid = ProcessId::new(rng.below(n));
            let word = rng.below(m);
            if rng.chance(0.5) {
                let value = rng.next_u64();
                mem[word] = value;
                actions.push(MwsAction::UpdateRequest { pid, word, value });
                actions.push(MwsAction::Update { pid, word, value });
                actions.push(MwsAction::UpdateReturn { pid });
            } else {
                actions.push(MwsAction::ScanRequest { pid });
                actions.push(MwsAction::Scan {
                    pid,
                    view: mem.clone(),
                });
                actions.push(MwsAction::ScanReturn {
                    pid,
                    view: mem.clone(),
                });
            }
        }
        assert!(accepts(&mws, &actions), "case {case}");
    }
}

#[test]
fn well_formedness_matches_a_reference_pending_model() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x3E11 ^ case);
        let events: Vec<ExternalEvent> = (0..rng.below(24))
            .map(|_| {
                let pid = ProcessId::new(rng.below(3));
                match rng.below(4) {
                    0 => ExternalEvent::UpdateRequest(pid),
                    1 => ExternalEvent::UpdateReturn(pid),
                    2 => ExternalEvent::ScanRequest(pid),
                    _ => ExternalEvent::ScanReturn(pid),
                }
            })
            .collect();

        // Reference model: per-process pending-kind map.
        let mut pending: std::collections::HashMap<usize, u8> = std::collections::HashMap::new();
        let mut model_ok = true;
        for e in &events {
            let key = e.pid().get();
            let step_ok = match e {
                ExternalEvent::UpdateRequest(_) => pending.insert(key, 0).is_none(),
                ExternalEvent::ScanRequest(_) => pending.insert(key, 1).is_none(),
                ExternalEvent::UpdateReturn(_) => pending.remove(&key) == Some(0),
                ExternalEvent::ScanReturn(_) => pending.remove(&key) == Some(1),
            };
            if !step_ok {
                model_ok = false;
                break;
            }
        }
        assert_eq!(
            check_well_formed(&events).is_ok(),
            model_ok,
            "case {case}: {events:?}"
        );
    }
}
