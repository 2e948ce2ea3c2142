//! Self-tests of the harness: the checks reject what they must, the
//! statistics match known inputs, the op stream is a function of the
//! seed, and the metric names agree with `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use snapshot_benchmark::check::{check_chain, check_pair_chains, MwChecker, SwChecker, View};
use snapshot_benchmark::drive::{Checker, Lane};
use snapshot_benchmark::gen::{script, value, Mix, OpKind, SCRIPT_LEN};
use snapshot_benchmark::report::{Report, END_TO_END, PER_LAYER};
use snapshot_benchmark::run::{run, Failure, RunSpec};
use snapshot_benchmark::stack::{MemScan, Stack};
use snapshot_benchmark::stats::{
    median, median_of_windows, per_call_ns, quantile_ns, samples_beyond,
};
use snapshot_benchmark::workload::WORKLOADS;
use snapshot_benchmark::SEGMENTS;
use snapshot_core::SnapshotView;
use snapshot_service::PartialView;

fn init() -> View {
    std::array::from_fn(|j| value(j + 1, 1))
}

// ---------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------

#[test]
fn chain_checker_rejects_incomparable_views() {
    let mut a = init();
    let mut b = init();
    a[0] = value(1, 5); // client 0 ahead in one view,
    b[1] = value(2, 7); // client 1 ahead in the other: no order fits.
    let err = check_chain(vec![init(), a, b]).expect_err("incomparable pair must be rejected");
    assert_eq!(err.rule, "views-form-a-chain");
    assert!(
        err.detail.contains("1:5") && err.detail.contains("2:7"),
        "offending views are printed: {err}"
    );

    // The same writes seen in a consistent order form a chain.
    let mut c = a;
    c[1] = value(2, 7);
    check_chain(vec![init(), a, c, c]).expect("a chain, duplicates included");
}

#[test]
fn pair_chains_compare_only_views_of_the_same_segments() {
    let ok = vec![(0, 1, 5, 5), (0, 1, 6, 5), (2, 3, 1, 9), (2, 3, 1, 9)];
    check_pair_chains(ok).expect("comparable per pair");
    let bad = vec![(0, 1, 5, 6), (0, 1, 6, 5), (2, 3, 1, 9)];
    let err =
        check_pair_chains(bad).expect_err("(5,6) and (6,5) over the same pair are incomparable");
    assert_eq!(err.rule, "subset-views-form-a-chain");
}

#[test]
fn stale_own_segment_is_rejected() {
    let mut checker = SwChecker::new(0, init());
    checker.on_scan(&init()).expect("the seeded view is fine");
    checker.on_update(value(1, 2));
    let err = checker
        .on_scan(&init())
        .expect_err("own segment still shows the overwritten value");
    assert_eq!(err.rule, "own-segment");

    let mut fresh = init();
    fresh[0] = value(1, 2);
    let mut checker = SwChecker::new(0, init());
    checker.on_update(value(1, 2));
    checker
        .on_scan(&fresh)
        .expect("own segment shows the last completed update");
    // A subset view is held to the same rules on the segments it names.
    let err = checker
        .on_subset(&[0, 3], &[value(1, 1), value(4, 1)])
        .expect_err("stale own segment in a subset");
    assert_eq!(err.rule, "own-segment");
}

#[test]
fn views_may_not_go_back_in_time_or_change_length() {
    let mut checker = SwChecker::new(0, init());
    let mut later = init();
    later[5] = value(6, 9);
    checker.on_scan(&later).unwrap();
    let err = checker.on_scan(&init()).expect_err("segment 5 went back");
    assert_eq!(err.rule, "per-client-monotone");
    let err = SwChecker::new(0, init())
        .on_scan(&init()[..7])
        .expect_err("seven entries");
    assert_eq!(err.rule, "view-length");
}

#[test]
fn multi_writer_checker_tracks_each_writer_per_word() {
    let mut checker = MwChecker::new(0, 1, [0; SEGMENTS]);
    let base: View = [value(2, 3); SEGMENTS];
    checker.on_scan(&base).unwrap();
    // Writer 2 may be overwritten by writer 1 and come back newer…
    checker.on_update(4, 10);
    let mut v = base;
    v[4] = value(1, 10);
    checker.on_scan(&v).unwrap();
    v[4] = value(2, 8);
    checker.on_scan(&v).unwrap();
    // …but never older than this client already saw it there,
    v[4] = value(2, 2);
    assert_eq!(checker.on_scan(&v).unwrap_err().rule, "per-writer-monotone");
    // and an own value must be the last one written to that word.
    let mut checker = MwChecker::new(0, 1, [0; SEGMENTS]);
    checker.on_update(4, 10);
    checker.on_update(4, 11);
    let mut v = base;
    v[4] = value(1, 10);
    assert_eq!(checker.on_scan(&v).unwrap_err().rule, "own-write");
}

/// `mem-scan` whose client 1 is handed, now and then, a view with its own
/// segment rolled back: the run must end in a violation, which `main`
/// turns into a non-zero exit without a result line.
struct Sabotaged(MemScan);

struct SabotagedLane<'a> {
    inner: <MemScan as Stack>::Lane<'a>,
    client: usize,
    scans: u64,
}

impl Lane for SabotagedLane<'_> {
    fn scan(&mut self) -> Result<SnapshotView<u64>, String> {
        let view = self.inner.scan()?;
        self.scans += 1;
        if self.client == 1 && self.scans.is_multiple_of(5000) {
            let mut stale = view.to_vec();
            stale[1] = value(2, 1);
            return Ok(SnapshotView::from(stale));
        }
        Ok(view)
    }

    fn update(&mut self, slot: usize, value: u64) -> Result<(), String> {
        self.inner.update(slot, value)
    }

    fn subset(&mut self, segments: &[usize]) -> Result<PartialView<u64>, String> {
        self.inner.subset(segments)
    }
}

impl Stack for Sabotaged {
    type Lane<'a> = SabotagedLane<'a>;

    fn lane(&self, client: usize, with_stats: bool) -> SabotagedLane<'_> {
        SabotagedLane {
            inner: self.0.lane(client, with_stats),
            client,
            scans: 0,
        }
    }

    fn seed(&self) -> Result<[(Checker, u64); 2], String> {
        self.0.seed()
    }
}

fn short_spec(mix: Mix) -> RunSpec {
    RunSpec {
        mix,
        seed: 5,
        warm_ops: 100,
        measure: Duration::from_millis(250),
        time_all: false,
        traced: false,
        repeat_setup: false,
        base: Instant::now(),
    }
}

#[test]
fn a_failed_check_fails_the_run() {
    let outcome = run(
        &|| Ok(Sabotaged(MemScan::build())),
        &short_spec(Mix::ScanHeavy),
    );
    match outcome {
        Err(Failure::Violation(v)) => {
            assert_eq!((v.rule, v.client), ("own-segment", 1), "{v}");
        }
        other => panic!("a doctored view must fail the run, got {other:?}"),
    }
}

#[test]
fn a_clean_run_reports_every_window() {
    let outcome =
        run(&|| Ok(MemScan::build()), &short_spec(Mix::ScanHeavy)).expect("mem-scan runs clean");
    assert_eq!(outcome.windows.len(), 5);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.ops_per_s().is_some() && outcome.p50(0).is_some() && outcome.p99(1).is_some());
    assert_eq!(outcome.setups_s.len(), 1);
}

#[test]
fn a_metric_without_a_value_fails_the_run() {
    let mut report = Report {
        attempted: 1,
        failed: 0,
        metrics: END_TO_END.iter().map(|(name, _)| (*name, 1.0)).collect(),
        notes: Vec::new(),
    };
    assert_eq!(report.values(&END_TO_END).unwrap(), [1.0; 6]);
    report.metrics.insert("scan_p99_ns", f64::NAN);
    assert!(matches!(
        report.values(&END_TO_END),
        Err(Failure::Metric(_))
    ));
    report.metrics.remove("scan_p99_ns");
    assert!(matches!(
        report.values(&END_TO_END),
        Err(Failure::Metric(_))
    ));
}

// ---------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------

#[test]
fn quantiles_interpolate_inside_the_one_ns_bin() {
    assert_eq!(quantile_ns(&[], 0.5), None);
    // 100 distinct values 0..100: rank 50 falls at the start of bin 50.
    let spread: Vec<u32> = (0..100).collect();
    assert_eq!(quantile_ns(&spread, 0.50), Some(50.0));
    assert_eq!(quantile_ns(&spread, 0.99), Some(99.0));
    // Four samples reading 40 and four reading 41: the median sits at
    // the boundary between the bins, and the quartiles inside them.
    let tied = [40, 40, 40, 40, 41, 41, 41, 41];
    assert_eq!(quantile_ns(&tied, 0.50), Some(41.0));
    assert_eq!(quantile_ns(&tied, 0.25), Some(40.5));
    assert_eq!(quantile_ns(&tied, 0.75), Some(41.5));
    // Every sample in one bin: the quantile is its position in the bin.
    assert_eq!(quantile_ns(&[7; 10], 0.30), Some(7.3));
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(999, 0.99), 10);
    assert_eq!(samples_beyond(200, 0.99), 2);
    assert_eq!(samples_beyond(0, 0.99), 0);
}

#[test]
fn medians_and_median_of_windows() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    // One stalled window in five does not move the reported value.
    let windows = [
        Some(100.0),
        Some(101.0),
        Some(9000.0),
        Some(99.0),
        Some(100.5),
    ];
    assert_eq!(median_of_windows(windows), Some(100.5));
    // Windows without a sample of the kind are skipped, not counted as 0.
    assert_eq!(median_of_windows([None, Some(7.0), None]), Some(7.0));
    assert_eq!(median_of_windows([None, None]), None);
    assert_eq!(per_call_ns(&[1024, 2048, 4096], 1024), 2.0);
}

// ---------------------------------------------------------------------
// Op stream.
// ---------------------------------------------------------------------

#[test]
fn scripts_are_a_function_of_seed_and_client() {
    for mix in [Mix::ScanHeavy, Mix::MultiWriter, Mix::Service] {
        assert_eq!(script(mix, 1990, 0), script(mix, 1990, 0));
        assert_ne!(script(mix, 1990, 0), script(mix, 7, 0));
        assert_ne!(script(mix, 1990, 0), script(mix, 1990, 1));
    }
}

#[test]
fn scripts_follow_their_mix() {
    let share = |mix, kind| {
        script(mix, 3, 0)
            .iter()
            .filter(|op| op.kind == kind)
            .count() as f64
            / SCRIPT_LEN as f64
    };
    assert!((share(Mix::ScanHeavy, OpKind::Scan) - 7.0 / 8.0).abs() < 0.01);
    assert!((share(Mix::MultiWriter, OpKind::Update) - 0.75).abs() < 0.01);
    assert!((share(Mix::Service, OpKind::Scan) - 0.50).abs() < 0.01);
    assert!((share(Mix::Service, OpKind::Subset) - 0.25).abs() < 0.01);
    assert_eq!(share(Mix::ScanHeavy, OpKind::Subset), 0.0);

    let ops = script(Mix::Service, 3, 1);
    let subsets: Vec<_> = ops.iter().filter(|op| op.kind == OpKind::Subset).collect();
    assert!(subsets
        .iter()
        .all(|op| op.a < op.b && (op.b as usize) < SEGMENTS));
    // zipf(s = 1): segment 0 is named by far more pairs than segment 7.
    let names = |seg: u8| {
        subsets
            .iter()
            .filter(|op| op.a == seg || op.b == seg)
            .count()
    };
    assert!(names(0) > 3 * names(7), "{} vs {}", names(0), names(7));
    // One op in sixteen carries the timing mark.
    let timed = ops.iter().filter(|op| op.timed).count() as f64 / SCRIPT_LEN as f64;
    assert!((timed - 1.0 / 16.0).abs() < 0.005, "{timed}");
}

// ---------------------------------------------------------------------
// Names agree with BENCHMARK.json.
// ---------------------------------------------------------------------

/// The `"name": "..."` values inside the top-level array `key` of
/// `BENCHMARK.json` (the file is flat enough that scanning to the array's
/// closing bracket is exact: no value in it contains `]`).
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no key {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("opening quote") + 1..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let legal = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    };
    let check = |key: &str, ours: Vec<&str>| {
        let theirs = names_in(&json, key);
        assert!(
            theirs.iter().all(|n| legal(n)),
            "illegal name under {key}: {theirs:?}"
        );
        let ours_set: BTreeSet<&str> = ours.iter().copied().collect();
        let theirs_set: BTreeSet<&str> = theirs.iter().map(String::as_str).collect();
        assert_eq!(
            ours_set.len(),
            ours.len(),
            "duplicate name in the harness's {key}"
        );
        assert_eq!(
            theirs_set.len(),
            theirs.len(),
            "duplicate name in BENCHMARK.json's {key}"
        );
        assert_eq!(
            ours_set, theirs_set,
            "{key}: harness output and BENCHMARK.json disagree"
        );
    };
    check("end_to_end", END_TO_END.iter().map(|(n, _)| *n).collect());
    check("per_layer", PER_LAYER.iter().map(|(n, _)| *n).collect());
    check("workloads", WORKLOADS.iter().map(|w| w.name).collect());
    // Units too: `"name": "x", "unit": "u"` appears verbatim.
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let needle = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            json.contains(&needle),
            "unit of {name} should be {unit} in BENCHMARK.json"
        );
    }
    assert!(
        json.contains("\"setup_s\""),
        "the contract requires a setup_s metric"
    );
}

// ---------------------------------------------------------------------
// The ledger.
// ---------------------------------------------------------------------

#[test]
fn ledger_telescopes_and_its_counts_are_exact() {
    let root = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger");
    let _ = std::fs::remove_dir_all(&root);
    let dir = snapshot_benchmark::stack::RunDir::create(&root).expect("scratch directory");
    let ledger =
        snapshot_benchmark::probe::run_all(Instant::now(), &|| dir.fresh()).expect("probes run");
    let v = |name: &str| {
        *ledger
            .values
            .get(name)
            .unwrap_or_else(|| panic!("probe {name} missing"))
    };

    for op in ["scan", "update"] {
        let rungs = v(&format!("core.unbounded.{op}_ns"))
            + v(&format!("service.overhead_{op}_ns"))
            + v(&format!("abd.overhead_{op}_ns"))
            + v(&format!("wire.overhead_{op}_ns"));
        let top = v(&format!("wire.{op}_solo_ns"));
        assert!(
            (rungs - top).abs() <= 1e-6 * top,
            "{op}: rungs sum to {rungs}, top rung reads {top}"
        );
    }
    assert_eq!(
        v("wire.update_solo_ns") + v("wire.store.overhead_update_ns"),
        v("wire.store.update_solo_ns")
    );
    // 2 collects x 8 registers x (query + write-back); an update adds the
    // write's own two phases.
    assert_eq!(v("abd.phases_per_scan"), 32.0);
    assert_eq!(v("abd.phases_per_update"), 34.0);
    // One append and one fsync per replica per update, none per scan.
    assert_eq!(v("wire.store.appends_per_update"), 3.0);
    assert_eq!(v("wire.store.fsyncs_per_update"), 3.0);
    assert_eq!(v("wire.stores_applied_per_update"), 3.0);
    assert!(v("registers.tracked_reuse_share") > 0.9);
    // Every probe block is in the trace as a span of its layer.
    assert!(ledger
        .spans
        .iter()
        .any(|s| s.layer == "wire.store" && s.name == "wire.store.apply_fsync"));
    drop(dir);
    assert!(
        std::fs::read_dir(&root)
            .expect("root stays")
            .next()
            .is_none(),
        "the run directory is removed on drop"
    );
    let _ = std::fs::remove_dir(&root);
}
