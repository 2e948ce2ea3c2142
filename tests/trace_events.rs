//! The observability layer observed: sim-scheduled tests asserting that
//! the typed trace events emitted by the snapshot algorithms carry the
//! proof-relevant facts — which process a scanner borrowed from and after
//! how many observed moves (2 for the single-writer protocols per
//! Observation 2, 3 for the multi-writer protocol per Lemma 5.2) — and
//! that a rejected history plus a trace sharing the recorder's clock
//! renders an annotated timeline interleaving operations with the
//! handshake flips and borrow decisions that doomed them.

use std::sync::Arc;

use snapshot_bench::harness::value_for;
use snapshot_core::{
    MultiWriterSnapshot, MwSnapshot, MwSnapshotHandle, MwVariant, SwSnapshot, SwSnapshotHandle,
    UnboundedSnapshot,
};
use snapshot_lin::{check_history, render_annotated_timeline, Recorder, WgResult};
use snapshot_obs::{Event, RingSink, Trace, TraceEvent};
use snapshot_registers::{EpochBackend, Instrumented, ProcessId};
use snapshot_sim::{Decision, FnPolicy, RoundRobinPolicy, Sim, SimConfig};

/// Extracts every `BorrowDecision` as `(emitter, lender, moved)`.
fn borrow_decisions(events: &[TraceEvent]) -> Vec<(usize, usize, u8)> {
    events
        .iter()
        .filter_map(|e| match e.event {
            Event::BorrowDecision { lender, moved } => Some((e.pid, lender, moved)),
            _ => None,
        })
        .collect()
}

#[test]
fn single_writer_borrow_event_names_lender_and_two_moves() {
    // P0 streams updates while P1 scans under round-robin: the same
    // interleaving that exercises the Observation-2 fallback in the
    // wait-freedom suite. Here we assert the *event*, not just the stat:
    // the scanner (P1) borrowed from the only updater (P0) after seeing it
    // move twice.
    let n = 2;
    let ring = Arc::new(RingSink::new(n, 65_536));
    let sim = Sim::new(n);
    let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
    let object =
        UnboundedSnapshot::with_backend(n, 0u64, &backend).with_trace(Trace::new(ring.clone()));

    let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    {
        let object = &object;
        bodies.push(Box::new(move || {
            let mut h = object.handle(ProcessId::new(0));
            for k in 0..400u64 {
                h.update(k);
            }
        }));
    }
    {
        let object = &object;
        bodies.push(Box::new(move || {
            let mut h = object.handle(ProcessId::new(1));
            for _ in 0..20 {
                let (_, stats) = h.scan_with_stats();
                if stats.borrowed {
                    break;
                }
            }
        }));
    }
    sim.run(
        &mut RoundRobinPolicy::new(),
        SimConfig {
            max_steps: Some(2_000_000),
            stop_when_done: vec![ProcessId::new(1)],
            record_trace: false,
        },
        bodies,
    )
    .expect("simulation failed");

    let events = ring.drain();
    let borrows = borrow_decisions(&events);
    assert!(
        !borrows.is_empty(),
        "expected at least one borrow under round-robin ({} events traced)",
        events.len()
    );
    for (emitter, lender, moved) in &borrows {
        assert_eq!(*emitter, 1, "only the scanner can borrow here");
        assert_eq!(*lender, 0, "the only updater is the only possible lender");
        assert_eq!(*moved, 2, "single-writer protocols borrow after two moves");
    }
}

#[test]
fn multi_writer_borrow_event_names_lender_and_three_moves() {
    // The multi-writer analogue: Lemma 5.2 needs *three* strikes before
    // the lender's second complete update is guaranteed to nest inside the
    // scanner's interval, and the event must say so.
    let (n, m) = (2, 2);
    let ring = Arc::new(RingSink::new(n, 65_536));
    let sim = Sim::new(n);
    let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
    let object = MultiWriterSnapshot::with_backend(n, m, 0u64, &backend)
        .with_trace(Trace::new(ring.clone()));

    let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    {
        let object = &object;
        bodies.push(Box::new(move || {
            let mut h = object.handle(ProcessId::new(0));
            for k in 0..1000u64 {
                h.update(0, k);
            }
        }));
    }
    {
        let object = &object;
        bodies.push(Box::new(move || {
            let mut h = object.handle(ProcessId::new(1));
            for _ in 0..50 {
                let (_, stats) = h.scan_with_stats();
                if stats.borrowed {
                    break;
                }
            }
        }));
    }
    // One whole update (16 gated steps at n = m = 2) per scanner step, so
    // every double collect straddles several complete updates and the
    // third strike borrows. 1:1 round-robin does not starve the scanner
    // here: that schedule is periodic and every scan comes up clean in
    // its second or third round.
    let mut starve_scanner = FnPolicy(|ready: &[snapshot_sim::ReadyProcess], step| {
        let turn = if step % 17 == 16 { 1 } else { 0 };
        Decision::Run(ready.iter().position(|r| r.pid.get() == turn).unwrap_or(0))
    });
    sim.run(
        &mut starve_scanner,
        SimConfig {
            max_steps: Some(2_000_000),
            stop_when_done: vec![ProcessId::new(1)],
            record_trace: false,
        },
        bodies,
    )
    .expect("simulation failed");

    let events = ring.drain();
    let borrows = borrow_decisions(&events);
    assert!(
        !borrows.is_empty(),
        "expected at least one borrow from a starved scanner ({} events traced)",
        events.len()
    );
    for (emitter, lender, moved) in &borrows {
        assert_eq!(*emitter, 1, "only the scanner can borrow here");
        assert_eq!(*lender, 0, "the only updater is the only possible lender");
        assert_eq!(*moved, 3, "the multi-writer protocol borrows after three moves");
    }
}

// ---------------------------------------------------------------------------
// The annotated-timeline acceptance test: re-run the Figure 4 `goto line 1`
// attack from `mw_variant_ablation.rs` with the recorder sharing the trace's
// clock, so the rejected history dumps a timeline showing exactly which
// handshake flips and which borrow decision produced the stale view.
// ---------------------------------------------------------------------------

const N: usize = 3;
const M: usize = 2;

/// The phased adversary of `mw_variant_ablation.rs`: P1 completes its
/// update, the scanner gets a 19-op head start (scan #1 plus scan #2's
/// handshake), P0 flips its handshake bits and stalls, the scanner runs
/// alone.
fn attack_policy() -> impl snapshot_sim::SchedulePolicy {
    const SCANNER_HEAD_START: u64 = 19;
    const P0_HANDSHAKE_OPS: u64 = 6;

    let mut granted = [0u64; N];
    FnPolicy(move |ready: &[snapshot_sim::ReadyProcess], _step| {
        let pick = |pid: usize| ready.iter().position(|r| r.pid.get() == pid);
        if let Some(i) = pick(1) {
            granted[1] += 1;
            return Decision::Run(i);
        }
        if granted[2] < SCANNER_HEAD_START {
            if let Some(i) = pick(2) {
                granted[2] += 1;
                return Decision::Run(i);
            }
        }
        if granted[0] < P0_HANDSHAKE_OPS {
            if let Some(i) = pick(0) {
                granted[0] += 1;
                return Decision::Run(i);
            }
        }
        if let Some(i) = pick(2) {
            granted[2] += 1;
            return Decision::Run(i);
        }
        Decision::Halt
    })
}

/// Records P0's update as pending if the simulator unwinds it mid-stall.
struct PendingGuard<'a> {
    rec: &'a Recorder<u64>,
    pid: ProcessId,
    word: usize,
    value: u64,
    inv: u64,
    done: bool,
}

impl PendingGuard<'_> {
    fn complete(mut self) {
        self.rec.end_update(self.pid, self.word, self.value, self.inv);
        self.done = true;
    }
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.rec.pending_update(self.pid, self.word, self.value, self.inv);
        }
    }
}

#[test]
fn rejected_history_renders_an_annotated_timeline() {
    // Cannot use `run_mw_sim` here: it owns its recorder, and the whole
    // point is to construct the recorder on the *trace's* clock so op
    // intervals and event sequence numbers share one axis.
    let ring = Arc::new(RingSink::new(N, 65_536));
    let trace = Trace::new(ring.clone());
    let sim = Sim::new(N);
    let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
    let object =
        MultiWriterSnapshot::with_options(N, M, 0u64, &backend, &backend, MwVariant::LiteralGoto1)
            .with_trace(trace.clone());
    let recorder = Recorder::with_clock(N, M, 0u64, trace.clock().clone());

    let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    for (pid, word) in [(0usize, 0usize), (1, 1)] {
        let object = &object;
        let recorder = &recorder;
        bodies.push(Box::new(move || {
            let pid = ProcessId::new(pid);
            let mut h = object.handle(pid);
            let value = value_for(pid, 1);
            let inv = recorder.begin();
            let guard = PendingGuard { rec: recorder, pid, word, value, inv, done: false };
            h.update(word, value);
            guard.complete();
        }));
    }
    {
        let object = &object;
        let recorder = &recorder;
        bodies.push(Box::new(move || {
            let pid = ProcessId::new(2);
            let mut h = object.handle(pid);
            for _ in 0..2 {
                let inv = recorder.begin();
                let view = h.scan();
                recorder.end_scan(pid, view.to_vec(), inv);
            }
        }));
    }
    let report = sim
        .run(
            &mut attack_policy(),
            SimConfig {
                max_steps: Some(10_000),
                stop_when_done: vec![ProcessId::new(2)],
                record_trace: false,
            },
            bodies,
        )
        .expect("simulation failed");
    assert!(report.completed(ProcessId::new(2)), "scanner must finish both scans");

    // The checker convicts the history, exactly as in the ablation test...
    let history = recorder.finish();
    assert_eq!(
        check_history(&history),
        WgResult::NotLinearizable,
        "the literal goto-1 variant must produce a violation"
    );

    // ...and this time the conviction comes with an annotated timeline.
    let events = ring.drain();
    assert!(!events.is_empty(), "the traced run must have buffered events");
    let smoking_gun = borrow_decisions(&events);
    assert_eq!(
        smoking_gun,
        vec![(2, 0, 3)],
        "the scanner borrows the stalled P0's never-written view"
    );

    let timeline = render_annotated_timeline(&history, &events);
    assert!(
        timeline.contains("trace events"),
        "header must count the interleaved events:\n{timeline}"
    );
    assert!(timeline.contains("scan -> [0, 0]"), "the stale view is on the timeline");
    assert!(
        timeline.contains("borrow_decision(lender=0, moved=3)"),
        "the fatal borrow is on the timeline:\n{timeline}"
    );
    assert!(
        timeline.contains("handshake_flip"),
        "P0's handshake flips (the root cause) are on the timeline"
    );

    // The op lines and event lines must actually interleave: scan #1's
    // events precede later invocations, while the borrow — emitted inside
    // the last scan's interval — renders after every op line (op lines sit
    // at their invocation timestamp).
    let lines: Vec<&str> = timeline.lines().collect();
    let last_op = lines
        .iter()
        .rposition(|l| l.contains("scan ->") || l.contains("update(word"))
        .expect("op lines present");
    let first_event = lines
        .iter()
        .position(|l| l.trim_start().starts_with('·'))
        .expect("event lines present");
    let borrow_line = lines
        .iter()
        .position(|l| l.contains("borrow_decision"))
        .expect("borrow event line present");
    assert!(first_event < last_op, "events must interleave with op lines, not merely trail them");
    assert!(borrow_line > last_op, "the borrow happened inside the final scan's interval");

    // Keep the artifact for humans; best-effort only.
    let _ = std::fs::create_dir_all("target");
    let _ = std::fs::write("target/annotated_timeline.txt", &timeline);
}
