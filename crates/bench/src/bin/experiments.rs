//! Regenerates every quantitative claim of the paper as a measured table.
//!
//! Usage:
//!
//! ```text
//! cargo run -p snapshot-bench --release --bin experiments -- all
//! cargo run -p snapshot-bench --release --bin experiments -- e1 e4
//! cargo run -p snapshot-bench --release --bin experiments -- e8 --trace-out trace.jsonl
//! ```
//!
//! `--trace-out PATH` makes `e8` dump its captured trace as JSON lines to
//! `PATH` and as a chrome://tracing file to `PATH.chrome.json`.
//!
//! Experiment index (see EXPERIMENTS.md for paper-vs-measured records):
//!
//! * `e1` — single-writer wait-freedom & `O(n²)` step complexity
//!   (Lemmas 3.4 / 4.4), under adversarial schedules;
//! * `e2` — multi-writer wait-freedom & step complexity (Section 5);
//! * `e3` — Observation 1 vs Observation 2: the plain double-collect
//!   scanner starves where the wait-free algorithms finish;
//! * `e4` — Section 6 compound costs: measured single-writer ops of the
//!   multi-writer snapshot over register-from-register construction, vs
//!   the modeled Anderson constructions;
//! * `e5` — linearizability battery: exhaustive + randomized model
//!   checking and threaded stress, plus the Figure 4 retry-edge ablation;
//! * `e6` — wall-clock latency/throughput of all algorithms vs the lock
//!   baseline (`bash benchmark/run.sh` gives the distributions);
//! * `e7` — snapshots over message passing via \[ABD\] under replica
//!   crashes (Section 6);
//! * `e8` — observability demo: one shared trace across a threaded soak,
//!   a deterministic sim run and ABD quorum phases, with the metrics
//!   registry and (optionally) JSON-lines / chrome://tracing dumps.

use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use snapshot_bench::anderson_model as model;
use snapshot_bench::harness::{self, run_mw_sim, run_sw_sim, sw_mixed_scripts, MwStep, SwStep};
use snapshot_bench::report::Table;
use snapshot_core::{
    BoundedSnapshot, DoubleCollectSnapshot, LockSnapshot, MultiWriterSnapshot, MwSnapshot,
    MwSnapshotHandle, MwVariant, SwSnapshot, SwSnapshotHandle, UnboundedSnapshot,
};
use snapshot_lin::{check_history, check_intervals, WgResult};
use snapshot_registers::OpKind;
use snapshot_registers::{CompoundBackend, EpochBackend, Instrumented, OpCounters, ProcessId};
use snapshot_sim::{
    Decision, ExploreLimits, Explorer, FnPolicy, OpBiasPolicy, RandomPolicy, RoundRobinPolicy, Sim,
    SimConfig,
};

/// A poisoned lock yields its guard: simulated bodies may be abandoned
/// mid-step, and the maxima they recorded before that are still wanted.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--trace-out" {
            args.remove(i);
            if i < args.len() {
                trace_out = Some(std::path::PathBuf::from(args.remove(i)));
            } else {
                eprintln!("--trace-out requires a path argument");
                std::process::exit(2);
            }
        } else {
            i += 1;
        }
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    println!("# Atomic Snapshots of Shared Memory — experiment harness");
    println!("# (adversarial results come from the deterministic simulator;");
    println!("#  wall-clock results from real threads on this machine)");
    println!();

    if want("e1") {
        e1_single_writer_complexity();
    }
    if want("e2") {
        e2_multi_writer_complexity();
    }
    if want("e3") {
        e3_starvation();
    }
    if want("e4") {
        e4_compound_costs();
    }
    if want("e5") {
        e5_linearizability();
    }
    if want("e6") {
        e6_wall_clock();
    }
    if want("e7") {
        e7_message_passing();
    }
    if want("e8") {
        e8_observability(trace_out.as_deref());
    }
}

fn e8_observability(trace_out: Option<&std::path::Path>) {
    use snapshot_abd::{AbdRegister, Network, NetworkConfig};
    use snapshot_obs::{
        chrome_tracing, json_lines, CountingSink, FanoutSink, Registry, RingSink, Sink, Trace,
    };
    use snapshot_registers::Register;

    const N: usize = 4;
    let ring = Arc::new(RingSink::new(N, 65_536));
    let counts = Arc::new(CountingSink::new());
    let fanout: Arc<dyn Sink> = Arc::new(FanoutSink::new(vec![
        Arc::clone(&ring) as Arc<dyn Sink>,
        Arc::clone(&counts) as Arc<dyn Sink>,
    ]));
    let trace = Trace::new(fanout);
    let registry = Arc::new(Registry::new());

    // (a) A 4-process threaded soak on the bounded algorithm: real
    // interleavings of rounds, handshakes, toggles and borrows.
    {
        let object = BoundedSnapshot::new(N, 0u64).with_trace(trace.clone());
        std::thread::scope(|s| {
            for i in 0..N {
                let object = &object;
                s.spawn(move || {
                    let mut h = object.handle(ProcessId::new(i));
                    for k in 0..100u64 {
                        h.update(k);
                        std::hint::black_box(h.scan());
                    }
                });
            }
        });
    }

    // (b) A deterministic sim run: scheduler step grants interleaved with
    // the algorithm's own events on the same sequence axis.
    {
        let sim = Sim::new(2).with_trace(trace.clone());
        let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
        let object = UnboundedSnapshot::with_backend(2, 0u64, &backend).with_trace(trace.clone());
        let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        {
            let object = &object;
            bodies.push(Box::new(move || {
                let mut h = object.handle(ProcessId::new(0));
                for k in 0..10u64 {
                    h.update(k);
                }
            }));
        }
        {
            let object = &object;
            bodies.push(Box::new(move || {
                let mut h = object.handle(ProcessId::new(1));
                for _ in 0..5 {
                    std::hint::black_box(h.scan());
                }
            }));
        }
        sim.run(&mut RoundRobinPolicy::new(), SimConfig::default(), bodies)
            .expect("simulation failed");
    }

    // (c) ABD quorum phases onto the same trace, with the network's
    // counters on the shared registry.
    {
        let network = Arc::new(Network::with_config(
            NetworkConfig::new(3)
                .with_registry(Arc::clone(&registry))
                .with_trace(trace.clone()),
        ));
        let reg = AbdRegister::new(Arc::clone(&network), 0u64);
        for k in 1..=10u64 {
            reg.write(ProcessId::new(0), k);
            std::hint::black_box(reg.read(ProcessId::new(1)));
        }
    }

    let events = ring.drain();
    let mut t = Table::new(
        "E8 — observability: event counts by kind (one trace shared by threads, sim and ABD)",
        &["event kind", "count"],
    );
    for (kind, count) in counts.counts() {
        t.row(&[kind.to_string(), count.to_string()]);
    }
    println!("{t}");
    println!("   metrics registry:");
    for line in registry.render().lines() {
        println!("   {line}");
    }
    if ring.dropped() > 0 {
        println!("   ({} oldest events evicted by the ring buffer)", ring.dropped());
    }
    if let Some(path) = trace_out {
        std::fs::write(path, json_lines(&events)).expect("writing --trace-out JSON lines");
        let chrome_path = std::path::PathBuf::from(format!("{}.chrome.json", path.display()));
        std::fs::write(&chrome_path, chrome_tracing(&events))
            .expect("writing --trace-out chrome://tracing file");
        println!(
            "   wrote {} events to {} (JSON lines) and {} (chrome://tracing)",
            events.len(),
            path.display(),
            chrome_path.display()
        );
    }
    println!();
}

fn e7_message_passing() {
    use snapshot_abd::{AbdBackend, Network};

    let mut t = Table::new(
        "E7 — snapshots over message passing via [ABD] (Section 6): n=2 processes, snapshot ops under replica crashes",
        &[
            "replicas",
            "crashed",
            "tolerance",
            "outcome",
            "messages per scan",
            "scan latency (us)",
        ],
    );
    for replicas in [3usize, 5, 7] {
        let network = std::sync::Arc::new(Network::new(replicas));
        let tolerance = network.fault_tolerance();
        for crashed in 0..=tolerance {
            for c in 0..crashed {
                network.crash(c);
            }
            let backend = AbdBackend::new(&network);
            let n = 2;
            let object = BoundedSnapshot::with_backend(n, 0u64, &backend);
            let mut h0 = object.handle(ProcessId::new(0));
            h0.update(1);
            let msgs_before = network.messages_sent();
            let start = std::time::Instant::now();
            const SCANS: u32 = 50;
            for _ in 0..SCANS {
                std::hint::black_box(h0.scan());
            }
            let latency_us = start.elapsed().as_micros() / SCANS as u128;
            let msgs_per_scan = (network.messages_sent() - msgs_before) / SCANS as u64;
            let view_ok = h0.scan().to_vec() == vec![1, 0];
            t.row(&[
                replicas.to_string(),
                crashed.to_string(),
                tolerance.to_string(),
                if view_ok { "correct scans" } else { "WRONG" }.to_string(),
                msgs_per_scan.to_string(),
                latency_us.to_string(),
            ]);
            for c in 0..crashed {
                network.restart(c);
            }
        }
    }
    println!("{t}");
    println!("   (liveness holds at every crash count up to the tolerance; beyond it");
    println!("    operations block by design — the paper's majority condition)");
    println!();
}

/// Worst observations of a single-writer algorithm under adversarial
/// schedules: (max double collects, max register ops per scan, max
/// register ops per update).
macro_rules! measure_sw {
    ($ty:ident, $n:expr, $updates:expr, $scans:expr, $seeds:expr) => {{
        let n: usize = $n;
        let mut max_dc = 0u32;
        let mut max_scan_ops = 0u64;
        let mut max_update_ops = 0u64;
        let mut run_one = |policy: &mut dyn snapshot_sim::SchedulePolicy| {
            let sim = Sim::new(n);
            let counters = Arc::new(OpCounters::new(n));
            let backend = Instrumented::new(EpochBackend::new())
                .with_gate(sim.gate())
                .with_counters(Arc::clone(&counters));
            let object = $ty::with_backend(n, 0u64, &backend);
            let worst: Mutex<(u32, u64, u64)> = Mutex::new((0, 0, 0));

            let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for i in 0..n - 1 {
                let object = &object;
                let counters = Arc::clone(&counters);
                let worst = &worst;
                bodies.push(Box::new(move || {
                    let pid = ProcessId::new(i);
                    let mut h = object.handle(pid);
                    for k in 0..$updates {
                        let before = counters.snapshot(pid);
                        h.update(k);
                        let cost = (counters.snapshot(pid) - before).total();
                        let mut w = lock(worst);
                        w.2 = w.2.max(cost);
                    }
                }));
            }
            {
                let object = &object;
                let counters = Arc::clone(&counters);
                let worst = &worst;
                bodies.push(Box::new(move || {
                    let pid = ProcessId::new(n - 1);
                    let mut h = object.handle(pid);
                    for _ in 0..$scans {
                        let before = counters.snapshot(pid);
                        let (_, stats) = h.scan_with_stats();
                        let cost = (counters.snapshot(pid) - before).total();
                        let mut w = lock(worst);
                        w.0 = w.0.max(stats.double_collects);
                        w.1 = w.1.max(cost);
                    }
                }));
            }
            sim.run(
                policy,
                SimConfig {
                    max_steps: Some(20_000_000),
                    stop_when_done: vec![ProcessId::new(n - 1)],
                    record_trace: false,
                },
                bodies,
            )
            .expect("simulation failed");
            let (dc, so, uo) = *lock(&worst);
            max_dc = max_dc.max(dc);
            max_scan_ops = max_scan_ops.max(so);
            max_update_ops = max_update_ops.max(uo);
        };
        run_one(&mut RoundRobinPolicy::new());
        run_one(&mut OpBiasPolicy::new(
            OpKind::Write,
            RoundRobinPolicy::new(),
        ));
        let seeds: u64 = $seeds; // zero for the deterministic-only cells
        for seed in 0..seeds {
            run_one(&mut RandomPolicy::seeded(seed));
        }
        (max_dc, max_scan_ops, max_update_ops)
    }};
}

fn e1_single_writer_complexity() {
    let mut t = Table::new(
        "E1 — single-writer wait-freedom & step complexity (Lemmas 3.4/4.4): worst case over adversarial schedules",
        &[
            "n",
            "algorithm",
            "max double collects",
            "bound n+1",
            "max ops/scan",
            "scan model (worst)",
            "max ops/update",
            "update model (worst)",
        ],
    );
    for n in [2usize, 3, 4, 6, 8] {
        let seeds = if n <= 4 { 12 } else { 6 };
        let (dc, so, uo) = measure_sw!(UnboundedSnapshot, n, 30u64, 8, seeds);
        t.row(&[
            n.to_string(),
            "unbounded (Fig 2)".into(),
            dc.to_string(),
            (n + 1).to_string(),
            so.to_string(),
            model::unbounded_sw_scan_ops(n as u64).to_string(),
            uo.to_string(),
            model::unbounded_sw_update_ops(n as u64).to_string(),
        ]);
        let (dc, so, uo) = measure_sw!(BoundedSnapshot, n, 30u64, 8, seeds);
        t.row(&[
            n.to_string(),
            "bounded (Fig 3)".into(),
            dc.to_string(),
            (n + 1).to_string(),
            so.to_string(),
            model::bounded_sw_scan_ops(n as u64).to_string(),
            uo.to_string(),
            model::bounded_sw_update_ops(n as u64).to_string(),
        ]);
    }
    println!("{t}");
    println!("   (measured <= model everywhere; growth ~n^2: the paper's O(n^2) claim)");
    println!();
}

fn e2_multi_writer_complexity() {
    let mut t = Table::new(
        "E2 — multi-writer wait-freedom & step complexity (Section 5): worst case over adversarial schedules",
        &[
            "n",
            "m",
            "max double collects",
            "bound 2n+1",
            "max ops/scan",
            "scan model (worst)",
            "max ops/update",
            "update model (worst)",
        ],
    );
    for (n, m) in [(2usize, 1usize), (2, 2), (3, 2), (3, 3), (4, 4), (4, 8)] {
        let mut max_dc = 0u32;
        let mut max_scan_ops = 0u64;
        let mut max_update_ops = 0u64;
        let mut run_one = |policy: &mut dyn snapshot_sim::SchedulePolicy| {
            let sim = Sim::new(n);
            let counters = Arc::new(OpCounters::new(n));
            let backend = Instrumented::new(EpochBackend::new())
                .with_gate(sim.gate())
                .with_counters(Arc::clone(&counters));
            let object = MultiWriterSnapshot::with_backend(n, m, 0u64, &backend);
            let worst: Mutex<(u32, u64, u64)> = Mutex::new((0, 0, 0));

            let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for i in 0..n - 1 {
                let object = &object;
                let counters = Arc::clone(&counters);
                let worst = &worst;
                bodies.push(Box::new(move || {
                    let pid = ProcessId::new(i);
                    let mut h = object.handle(pid);
                    for k in 0..20u64 {
                        let before = counters.snapshot(pid);
                        h.update(i % m, k);
                        let cost = (counters.snapshot(pid) - before).total();
                        let mut w = lock(worst);
                        w.2 = w.2.max(cost);
                    }
                }));
            }
            {
                let object = &object;
                let counters = Arc::clone(&counters);
                let worst = &worst;
                bodies.push(Box::new(move || {
                    let pid = ProcessId::new(n - 1);
                    let mut h = object.handle(pid);
                    for _ in 0..6 {
                        let before = counters.snapshot(pid);
                        let (_, stats) = h.scan_with_stats();
                        let cost = (counters.snapshot(pid) - before).total();
                        let mut w = lock(worst);
                        w.0 = w.0.max(stats.double_collects);
                        w.1 = w.1.max(cost);
                    }
                }));
            }
            sim.run(
                policy,
                SimConfig {
                    max_steps: Some(20_000_000),
                    stop_when_done: vec![ProcessId::new(n - 1)],
                    record_trace: false,
                },
                bodies,
            )
            .expect("simulation failed");
            let (dc, so, uo) = *lock(&worst);
            max_dc = max_dc.max(dc);
            max_scan_ops = max_scan_ops.max(so);
            max_update_ops = max_update_ops.max(uo);
        };
        run_one(&mut RoundRobinPolicy::new());
        run_one(&mut OpBiasPolicy::new(
            OpKind::Write,
            RoundRobinPolicy::new(),
        ));
        for seed in 0..8 {
            run_one(&mut RandomPolicy::seeded(seed));
        }
        t.row(&[
            n.to_string(),
            m.to_string(),
            max_dc.to_string(),
            (2 * n + 1).to_string(),
            max_scan_ops.to_string(),
            model::mw_scan_ops(n as u64, m as u64).to_string(),
            max_update_ops.to_string(),
            model::mw_update_ops(n as u64, m as u64).to_string(),
        ]);
    }
    println!("{t}");
    println!();
}

fn e3_starvation() {
    let mut t = Table::new(
        "E3 — Observation 1 vs Observation 2: scanner vs continuous updater, round-robin adversary",
        &[
            "algorithm",
            "scan budget (double collects)",
            "outcome",
            "double collects used",
        ],
    );

    // Plain double collect: starved at any budget while updates continue.
    for budget in [10u32, 100, 1000] {
        let n = 2;
        let sim = Sim::new(n);
        let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
        let object = DoubleCollectSnapshot::with_backend(n, 0u64, &backend);
        let outcome: Mutex<Option<u32>> = Mutex::new(None);
        let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        {
            let object = &object;
            bodies.push(Box::new(move || {
                let mut h = object.handle(ProcessId::new(0));
                for k in 0..4 * budget as u64 * 2 {
                    h.update(k);
                }
            }));
        }
        {
            let object = &object;
            let outcome = &outcome;
            bodies.push(Box::new(move || {
                let mut h = object.handle(ProcessId::new(1));
                *lock(outcome) = h.try_scan(budget).map(|(_, s)| s.double_collects);
            }));
        }
        sim.run(
            &mut RoundRobinPolicy::new(),
            SimConfig {
                max_steps: Some(20_000_000),
                stop_when_done: vec![ProcessId::new(1)],
                record_trace: false,
            },
            bodies,
        )
        .expect("simulation failed");
        let o = *lock(&outcome);
        t.row(&[
            "double-collect (Obs. 1 only)".to_string(),
            budget.to_string(),
            match o {
                Some(_) => "completed".to_string(),
                None => "STARVED".to_string(),
            },
            o.map_or_else(|| format!(">{budget}"), |d| d.to_string()),
        ]);
    }

    // The wait-free algorithms under the same adversary.
    for n in [2usize, 4, 8] {
        let (dc, _, _) = measure_sw!(UnboundedSnapshot, n, 200u64, 15, 0);
        t.row(&[
            format!("unbounded (Fig 2), n={n}"),
            "unlimited".to_string(),
            "completed (wait-free)".to_string(),
            format!("{dc} <= {}", n + 1),
        ]);
        let (dc, _, _) = measure_sw!(BoundedSnapshot, n, 200u64, 15, 0);
        t.row(&[
            format!("bounded (Fig 3), n={n}"),
            "unlimited".to_string(),
            "completed (wait-free)".to_string(),
            format!("{dc} <= {}", n + 1),
        ]);
    }
    println!("{t}");
    println!();
}

fn e4_compound_costs() {
    let mut t = Table::new(
        "E4 — Section 6 compound construction: single-writer register ops per operation (m = n)",
        &[
            "n",
            "measured SWMR ops/scan (quiescent)",
            "ours, worst-case model O(n^3)",
            "Anderson MW over bounded SW, model O(n^4)",
            "Anderson SW composite, model O(2^n)",
        ],
    );
    for n in [2usize, 4, 8, 16, 32] {
        let m = n;
        let counters = Arc::new(OpCounters::new(n));
        let inner = Instrumented::new(EpochBackend::new()).with_counters(Arc::clone(&counters));
        let mwmr = CompoundBackend::new(n, inner);
        let swmr = Instrumented::new(EpochBackend::new()).with_counters(Arc::clone(&counters));
        let object =
            MultiWriterSnapshot::with_options(n, m, 0u64, &swmr, &mwmr, MwVariant::RescanHandshake);
        let pid = ProcessId::new(0);
        let mut h = object.handle(pid);
        let before = counters.snapshot(pid);
        let _ = h.scan();
        let measured = (counters.snapshot(pid) - before).total();
        t.row(&[
            n.to_string(),
            measured.to_string(),
            model::compound_mw_scan_swmr_ops(n as u64, m as u64).to_string(),
            model::anderson_mw_over_bounded_sw_ops(n as u64).to_string(),
            model::anderson_sw_ops(n as u32).to_string(),
        ]);
    }
    println!("{t}");
    println!("   (ours grows ~n^3, Anderson's compound ~n^4, Anderson's direct 2^n:");
    println!("    who wins and where the exponential blows up match Section 6)");
    println!();
}

fn e5_linearizability() {
    let mut t = Table::new(
        "E5 — linearizability battery (Theorems 3.5/4.5/5.4)",
        &["check", "configuration", "runs/histories", "violations"],
    );

    // (a) Exhaustive exploration, small configs.
    let mut explore_sw = |name: &str, make: &dyn Fn(&harness::GatedBackend, usize) -> BoxedSw| {
        for (scripts, label) in [
            (vec![vec![SwStep::Update], vec![SwStep::Scan]], "n=2: U | S"),
            (
                vec![vec![SwStep::Update, SwStep::Update], vec![SwStep::Scan]],
                "n=2: UU | S",
            ),
        ] {
            let mut runs = 0u64;
            let mut violations = 0u64;
            Explorer::new(ExploreLimits {
                max_runs: 25_000,
                max_depth: 4096,
            })
            .explore::<String>(|policy| {
                let (history, _) =
                    run_sw_boxed(2, &scripts, policy, make).map_err(|e| e.to_string())?;
                runs += 1;
                if !check_history(&history).is_linearizable() {
                    violations += 1;
                }
                Ok(())
            })
            .unwrap();
            t.row(&[
                format!("exhaustive DFS ({name})"),
                label.to_string(),
                runs.to_string(),
                violations.to_string(),
            ]);
        }
    };
    explore_sw("unbounded", &|b, n| {
        Box::new(UnboundedSnapshot::with_backend(n, 0u64, b))
    });
    explore_sw("bounded", &|b, n| {
        Box::new(BoundedSnapshot::with_backend(n, 0u64, b))
    });

    // (b) Random deep sims, bigger configs.
    let mut total = 0u64;
    let mut violations = 0u64;
    for n in [3usize, 4] {
        let scripts = sw_mixed_scripts(n, 2);
        for seed in 0..200 {
            let (history, _) = run_sw_sim(
                n,
                &scripts,
                &mut RandomPolicy::seeded(seed),
                SimConfig::default(),
                |b| BoundedSnapshot::with_backend(n, 0u64, b),
            )
            .unwrap();
            total += 1;
            if !check_history(&history).is_linearizable() {
                violations += 1;
            }
        }
    }
    t.row(&[
        "random sims + Wing-Gong (bounded)".to_string(),
        "n=3..4, 2 rounds".to_string(),
        total.to_string(),
        violations.to_string(),
    ]);

    // (c) Threaded stress + interval checker.
    let mut total_ops = 0usize;
    let mut violations = 0usize;
    for n in [4usize, 8] {
        let object = BoundedSnapshot::new(n, 0u64);
        let history = harness::run_sw_threaded(&object, &sw_mixed_scripts(n, 300));
        total_ops += history.len();
        if check_intervals(&history).is_err() {
            violations += 1;
        }
    }
    t.row(&[
        "threaded stress + interval checker".to_string(),
        "n=4,8, 300 rounds".to_string(),
        format!("{total_ops} ops"),
        violations.to_string(),
    ]);

    // (d) The Figure 4 retry-edge ablation.
    for variant in [MwVariant::LiteralGoto1, MwVariant::RescanHandshake] {
        let found = figure4_attack_finds_violation(variant);
        t.row(&[
            format!("Figure 4 retry ablation ({variant:?})"),
            "n=3, m=2, crafted schedule".to_string(),
            "1".to_string(),
            if found {
                "1 — stale borrowed view".to_string()
            } else {
                "0".to_string()
            },
        ]);
    }

    println!("{t}");
    println!();
}

type BoxedSw = Box<dyn SwBox>;

/// Object-safe veneer over the GAT-based snapshot trait, for E5's dynamic
/// dispatch across algorithms.
trait SwBox: Send + Sync {
    fn run_script(&self, pid: ProcessId, script: &[SwStep], recorder: &snapshot_lin::Recorder<u64>);
}

impl<O: SwSnapshot<u64>> SwBox for O {
    fn run_script(
        &self,
        pid: ProcessId,
        script: &[SwStep],
        recorder: &snapshot_lin::Recorder<u64>,
    ) {
        let mut h = self.handle(pid);
        let mut k = 0u64;
        for step in script {
            match step {
                SwStep::Update => {
                    k += 1;
                    let value = harness::value_for(pid, k);
                    let inv = recorder.begin();
                    h.update(value);
                    recorder.end_update(pid, pid.get(), value, inv);
                }
                SwStep::Scan => {
                    let inv = recorder.begin();
                    let view = h.scan();
                    recorder.end_scan(pid, view.to_vec(), inv);
                }
            }
        }
    }
}

fn run_sw_boxed(
    n: usize,
    scripts: &[Vec<SwStep>],
    policy: &mut dyn snapshot_sim::SchedulePolicy,
    make: &dyn Fn(&harness::GatedBackend, usize) -> BoxedSw,
) -> Result<(snapshot_lin::History<u64>, snapshot_sim::SimReport), snapshot_sim::SimError> {
    let sim = Sim::new(n);
    let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
    let object = make(&backend, n);
    let recorder = snapshot_lin::Recorder::new(n, n, 0u64);
    let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    for (i, script) in scripts.iter().enumerate() {
        let object = &object;
        let recorder = &recorder;
        bodies.push(Box::new(move || {
            object.run_script(ProcessId::new(i), script, recorder);
        }));
    }
    let report = sim.run(policy, SimConfig::default(), bodies)?;
    Ok((recorder.finish(), report))
}

fn figure4_attack_finds_violation(variant: MwVariant) -> bool {
    const N: usize = 3;
    const M: usize = 2;
    let mut granted = [0u64; N];
    let mut policy = FnPolicy(move |ready: &[snapshot_sim::ReadyProcess], _| {
        let pick = |pid: usize| ready.iter().position(|r| r.pid.get() == pid);
        if let Some(i) = pick(1) {
            granted[1] += 1;
            return Decision::Run(i);
        }
        if granted[2] < 19 {
            if let Some(i) = pick(2) {
                granted[2] += 1;
                return Decision::Run(i);
            }
        }
        if granted[0] < 6 {
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
    });
    let scripts: Vec<Vec<MwStep>> = vec![
        vec![MwStep::Update(0)],
        vec![MwStep::Update(1)],
        vec![MwStep::Scan, MwStep::Scan],
    ];
    let (history, _) = run_mw_sim(
        N,
        M,
        &scripts,
        &mut policy,
        SimConfig {
            max_steps: Some(10_000),
            stop_when_done: vec![ProcessId::new(2)],
            record_trace: false,
        },
        |b| MultiWriterSnapshot::with_options(N, M, 0u64, b, b, variant),
    )
    .expect("simulation failed");
    matches!(check_history(&history), WgResult::NotLinearizable)
}

fn e6_wall_clock() {
    let mut t = Table::new(
        "E6 — wall-clock costs on this machine (real threads; `bash benchmark/run.sh` for distributions)",
        &[
            "n",
            "algorithm",
            "uncontended scan (ns)",
            "uncontended update (ns)",
            "contended scan+update ops/ms",
        ],
    );
    for n in [2usize, 4, 8] {
        wall_clock_row(
            &mut t,
            n,
            "unbounded (Fig 2)",
            &UnboundedSnapshot::new(n, 0u64),
        );
        wall_clock_row(&mut t, n, "bounded (Fig 3)", &BoundedSnapshot::new(n, 0u64));
        let mw = MultiWriterSnapshot::new(n, n, 0u64);
        wall_clock_row_mw(&mut t, n, "multi-writer (Fig 4)", &mw);
        wall_clock_row(&mut t, n, "lock baseline", &LockSnapshot::new(n, 0u64));
        wall_clock_row(
            &mut t,
            n,
            "double-collect baseline",
            &DoubleCollectSnapshot::new(n, 0u64),
        );
    }
    println!("{t}");
    println!("   (single-CPU machine: contended numbers reflect timeslicing, not");
    println!("    parallel cache traffic; shapes, not absolutes, are the claim)");
    println!();
}

fn wall_clock_row<O: SwSnapshot<u64>>(t: &mut Table, n: usize, name: &str, object: &O) {
    const ITERS: u32 = 20_000;
    // Uncontended.
    let (scan_ns, update_ns) = {
        let mut h = object.handle(ProcessId::new(0));
        let start = std::time::Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(h.scan());
        }
        let scan_ns = start.elapsed().as_nanos() / ITERS as u128;
        let start = std::time::Instant::now();
        for k in 0..ITERS {
            h.update(k as u64);
        }
        (scan_ns, start.elapsed().as_nanos() / ITERS as u128)
    };
    // Contended: every process mixes scans and updates for a fixed time.
    let ops_per_ms = {
        let total_ops = std::sync::atomic::AtomicU64::new(0);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for i in 0..n {
                let total_ops = &total_ops;
                s.spawn(move || {
                    let mut h = object.handle(ProcessId::new(i));
                    let mut ops = 0u64;
                    while start.elapsed().as_millis() < 150 {
                        h.update(ops);
                        std::hint::black_box(h.scan());
                        ops += 2;
                    }
                    total_ops.fetch_add(ops, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        total_ops.load(std::sync::atomic::Ordering::Relaxed) as u128 * 1000
            / start.elapsed().as_micros().max(1)
    };
    t.row(&[
        n.to_string(),
        name.to_string(),
        scan_ns.to_string(),
        update_ns.to_string(),
        ops_per_ms.to_string(),
    ]);
}

fn wall_clock_row_mw<O: MwSnapshot<u64>>(t: &mut Table, n: usize, name: &str, object: &O) {
    const ITERS: u32 = 20_000;
    let (scan_ns, update_ns) = {
        let mut h = object.handle(ProcessId::new(0));
        let start = std::time::Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(h.scan());
        }
        let scan_ns = start.elapsed().as_nanos() / ITERS as u128;
        let start = std::time::Instant::now();
        for k in 0..ITERS {
            h.update(0, k as u64);
        }
        (scan_ns, start.elapsed().as_nanos() / ITERS as u128)
    };
    let ops_per_ms = {
        let total_ops = std::sync::atomic::AtomicU64::new(0);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for i in 0..n {
                let total_ops = &total_ops;
                s.spawn(move || {
                    let mut h = object.handle(ProcessId::new(i));
                    let mut ops = 0u64;
                    while start.elapsed().as_millis() < 150 {
                        h.update(i % object.words(), ops);
                        std::hint::black_box(h.scan());
                        ops += 2;
                    }
                    total_ops.fetch_add(ops, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        total_ops.load(std::sync::atomic::Ordering::Relaxed) as u128 * 1000
            / start.elapsed().as_micros().max(1)
    };
    t.row(&[
        n.to_string(),
        name.to_string(),
        scan_ns.to_string(),
        update_ns.to_string(),
        ops_per_ms.to_string(),
    ]);
}
