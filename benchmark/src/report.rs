//! Metric names and units, the two kinds of run (`--trace 0` / `--trace
//! 1`), and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::drive::{SCAN, SUBSET, UPDATE};
use crate::gen::Mix;
use crate::probe;
use crate::procfs;
use crate::run::{Failure, Outcome, RunSpec};
use crate::stack::{reading, RunDir};
use crate::tracing::{analyze, write_jsonl, Plane};
use crate::workload::{run_workload, Workload};

/// End-to-end metrics `(name, unit)`: what a `--trace 0` run reports.
pub const END_TO_END: [(&str, &str); 6] = [
    ("scan_p50_ns", "ns"),
    ("scan_p99_ns", "ns"),
    ("update_p50_ns", "ns"),
    ("update_p99_ns", "ns"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`: what a `--trace 1` run reports.
pub const PER_LAYER: [(&str, &str); 75] = [
    ("registers.epoch_read_ns", "ns"),
    ("registers.epoch_write_ns", "ns"),
    ("registers.epoch_read_contended_ns", "ns"),
    ("registers.collect8_ns", "ns"),
    ("registers.tracked_reuse_share", "share"),
    ("core.unbounded.scan_ns", "ns"),
    ("core.unbounded.update_ns", "ns"),
    ("core.bounded.scan_ns", "ns"),
    ("core.bounded.update_ns", "ns"),
    ("core.multiwriter.scan_ns", "ns"),
    ("core.multiwriter.update_ns", "ns"),
    ("core.locked.scan_ns", "ns"),
    ("core.locked.update_ns", "ns"),
    ("core.double_collects_per_scan", "count"),
    ("core.borrowed_share", "share"),
    ("core.reads_per_scan", "count"),
    ("core.writes_per_update", "count"),
    ("service.scan_solo_ns", "ns"),
    ("service.update_solo_ns", "ns"),
    ("service.overhead_scan_ns", "ns"),
    ("service.overhead_update_ns", "ns"),
    ("service.subset_p50_ns", "ns"),
    ("service.subset_p99_ns", "ns"),
    ("service.coalesced_share", "share"),
    ("service.partial_native_share", "share"),
    ("service.retries", "count"),
    ("service.shed", "count"),
    ("service.span.coalesce_park_us_per_scan", "us"),
    ("service.span.backoff_us_per_op", "us"),
    ("abd.reg_read_sim_ns", "ns"),
    ("abd.reg_write_sim_ns", "ns"),
    ("abd.phases_per_scan", "count"),
    ("abd.phases_per_update", "count"),
    ("abd.msgs_per_scan", "count"),
    ("abd.msgs_per_update", "count"),
    ("abd.retries", "count"),
    ("abd.scan_solo_ns", "ns"),
    ("abd.update_solo_ns", "ns"),
    ("abd.overhead_scan_ns", "ns"),
    ("abd.overhead_update_ns", "ns"),
    ("abd.span.quorum_query_us_per_scan", "us"),
    ("abd.span.quorum_store_us_per_update", "us"),
    ("wire.reg_read_uds_ns", "ns"),
    ("wire.reg_write_uds_ns", "ns"),
    ("wire.phase_ns", "ns"),
    ("wire.scan_solo_ns", "ns"),
    ("wire.update_solo_ns", "ns"),
    ("wire.overhead_scan_ns", "ns"),
    ("wire.overhead_update_ns", "ns"),
    ("wire.frames_in_per_op", "count"),
    ("wire.frames_out_per_op", "count"),
    ("wire.stores_applied_per_update", "count"),
    ("wire.duplicates_suppressed", "count"),
    ("wire.errors", "count"),
    ("wire.disconnects", "count"),
    ("wire.dials", "count"),
    ("wire.store.apply_mem_ns", "ns"),
    ("wire.store.apply_log_ns", "ns"),
    ("wire.store.apply_fsync_ns", "ns"),
    ("wire.store.appends_per_update", "count"),
    ("wire.store.fsyncs_per_update", "count"),
    ("wire.store.log_bytes_per_update", "bytes"),
    ("wire.store.checkpoints", "count"),
    ("wire.store.update_solo_ns", "ns"),
    ("wire.store.overhead_update_ns", "ns"),
    ("obs.trace_overhead_share", "share"),
    ("obs.events_per_op", "count"),
    ("obs.dropped_events", "count"),
    ("proc.peak_rss_mb", "MiB"),
    ("proc.cpu_per_wall", "share"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.threads", "count"),
    ("bench.timer_ns", "ns"),
    ("bench.window_spread", "ratio"),
    ("bench.failed_ops_share", "share"),
];

/// A finished run, ready to print.
#[derive(Debug)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned a typed error.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed above the result line (sample
    /// counts, the first typed error).
    pub notes: Vec<String>,
}

impl Report {
    /// The values of `names`, in order. A metric the run left absent or
    /// not finite fails it: printed as 0 it would pass for a gain.
    pub fn values(&self, names: &[(&'static str, &'static str)]) -> Result<Vec<f64>, Failure> {
        names
            .iter()
            .map(|(name, _)| {
                self.metrics
                    .get(name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| Failure::Metric(format!("{name} is absent or not finite")))
            })
            .collect()
    }
}

fn sample_notes(outcome: &Outcome, notes: &mut Vec<String>) {
    for (kind, name) in [(SCAN, "scan"), (UPDATE, "update"), (SUBSET, "scan_subset")] {
        let n = outcome.min_samples(kind);
        if n == 0 {
            continue;
        }
        if outcome.p99_per_window(kind) {
            notes.push(format!(
                "{name}: at least {n} timed samples per window, {} beyond the per-window p99",
                crate::stats::samples_beyond(n, 0.99)
            ));
        } else {
            let pooled = outcome.pooled_samples[kind];
            notes.push(format!(
                "{name}: at least {n} timed samples per window (p50), {pooled} in the run, {} beyond the pooled p99",
                crate::stats::samples_beyond(pooled, 0.99)
            ));
        }
    }
    let mut setups = outcome.setups_s.clone();
    setups.sort_by(f64::total_cmp);
    notes.push(format!(
        "set-up repeated {} times: fastest {:.6} s, slowest {:.6} s",
        setups.len(),
        setups.first().copied().unwrap_or(f64::NAN),
        setups.last().copied().unwrap_or(f64::NAN),
    ));
    if let Some(e) = &outcome.first_error {
        notes.push(format!("first typed error: {e}"));
    }
}

/// `--trace 0`: the end-to-end metrics of one untraced run.
pub fn end_to_end(w: &Workload, seed: u64, seconds: u64, dir: &RunDir) -> Result<Report, Failure> {
    let spec = RunSpec {
        repeat_setup: true,
        ..w.spec(seed, Duration::from_secs(seconds), Instant::now())
    };
    let outcome = run_workload(w, &spec, &Plane::disabled(), dir)?;
    let mut metrics = BTreeMap::new();
    for (name, value) in [
        ("scan_p50_ns", outcome.p50(SCAN)),
        ("scan_p99_ns", outcome.p99(SCAN)),
        ("update_p50_ns", outcome.p50(UPDATE)),
        ("update_p99_ns", outcome.p99(UPDATE)),
        ("ops_per_s", outcome.ops_per_s()),
        ("setup_s", outcome.setup_s()),
    ] {
        metrics.insert(name, measured(name, value)?);
    }
    let mut notes = Vec::new();
    sample_notes(&outcome, &mut notes);
    notes.push(format!(
        "ops_per_s by window: {:?} (max/min {:.3})",
        outcome
            .windows
            .iter()
            .map(|w| w.ops_per_s.round())
            .collect::<Vec<_>>(),
        outcome.window_spread()
    ));
    notes.push(format!(
        "scan_p50_ns by window: {:?}",
        outcome
            .windows
            .iter()
            .map(|w| w.quantiles[SCAN][0].map_or(f64::NAN, f64::round))
            .collect::<Vec<_>>()
    ));
    Ok(Report {
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
        notes,
    })
}

/// A timing or rate every run of the workload has samples for.
fn measured(name: &str, value: Option<f64>) -> Result<f64, Failure> {
    value
        .filter(|v| v.is_finite() && *v > 0.0)
        .ok_or_else(|| Failure::Metric(format!("{name} has no samples")))
}

/// A per-op count or share; 0 when the workload never ran the op (it
/// bypasses the layer).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `--trace 1`: an untraced reference segment, a traced segment and the
/// probes; writes `out/trace-<workload>.jsonl`.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    seconds: u64,
    dir: &RunDir,
    out: &Path,
) -> Result<Report, Failure> {
    let base = Instant::now();
    // Half the time for the untraced reference segment (long enough for
    // `wire-durable`'s replicas to cycle a checkpoint each), a quarter
    // for the traced one; the probes take the rest.
    let spec = w.spec(seed, Duration::from_millis(seconds * 1000 / 2), base);
    let reference = run_workload(w, &spec, &Plane::disabled(), dir)?;
    let peak_rss_mb = procfs::peak_rss_mb();
    let plane = Plane::recording(base);
    let traced = run_workload(
        w,
        &RunSpec {
            traced: true,
            ..spec
        },
        &plane,
        dir,
    )?;
    let (sums, mut file) = analyze(&plane, &traced.spans);
    drop(plane);
    let ledger = probe::run_all(base, &|| dir.fresh()).map_err(Failure::Setup)?;
    file.extend(ledger.spans.iter().cloned());
    let trace_path = out.join(format!("trace-{}.jsonl", w.name));
    write_jsonl(&trace_path, &file)
        .map_err(|e| Failure::Setup(format!("writing {}: {e}", trace_path.display())))?;

    let mut m: BTreeMap<&'static str, f64> = ledger.values.clone();
    let c = |name: &str| reading(&reference.counters, name);
    let core = traced.core;
    m.insert(
        "core.double_collects_per_scan",
        ratio(core.double_collects as f64, core.scans as f64),
    );
    m.insert(
        "core.borrowed_share",
        ratio(core.borrowed as f64, core.scans as f64),
    );
    m.insert(
        "core.reads_per_scan",
        ratio(core.scan_reads as f64, core.scans as f64),
    );
    m.insert(
        "core.writes_per_update",
        ratio(core.update_writes as f64, core.updates as f64),
    );
    // The `mem-*` mixes script no subset scans: they bypass the layer and
    // read 0 here, like its counters. Under the service mix a subset
    // percentile without samples is a failed run.
    for (name, value) in [
        ("service.subset_p50_ns", reference.p50(SUBSET)),
        ("service.subset_p99_ns", reference.p99(SUBSET)),
    ] {
        let value = match w.mix {
            Mix::Service => measured(name, value)?,
            Mix::ScanHeavy | Mix::MultiWriter => 0.0,
        };
        m.insert(name, value);
    }
    m.insert(
        "service.coalesced_share",
        ratio(
            c("service.scan.coalesced"),
            c("service.scan.coalesced") + c("service.scan.solo"),
        ),
    );
    m.insert(
        "service.partial_native_share",
        ratio(c("service.partial.native"), c("service.scan.partial")),
    );
    m.insert("service.retries", c("service.fault.retries"));
    m.insert(
        "service.shed",
        c("service.overloaded")
            + c("service.fault.degraded_shed")
            + c("service.fault.deadline_exceeded"),
    );
    m.insert(
        "service.span.coalesce_park_us_per_scan",
        sums.coalesce_park_us_per_scan,
    );
    m.insert("service.span.backoff_us_per_op", sums.backoff_us_per_op);
    m.insert("abd.retries", c("abd.retries"));
    m.insert(
        "abd.span.quorum_query_us_per_scan",
        sums.quorum_query_us_per_scan,
    );
    m.insert(
        "abd.span.quorum_store_us_per_update",
        sums.quorum_store_us_per_update,
    );
    m.insert(
        "wire.duplicates_suppressed",
        c("snapshotd.duplicates_suppressed") + c("abd.duplicates_suppressed"),
    );
    m.insert(
        "wire.errors",
        c("snapshotd.errors_sent")
            + c("snapshotd.decode_errors")
            + c("snapshotd.corrupt_frames")
            + c("abd.wire.protocol_errors")
            + c("abd.wire.handshake_failures"),
    );
    m.insert("wire.disconnects", c("abd.wire.disconnects"));
    m.insert("wire.dials", c("abd.wire.dials"));
    m.insert("wire.store.checkpoints", c("snapshotd.store.checkpoints"));
    m.insert(
        "obs.trace_overhead_share",
        1.0 - measured("traced ops_per_s", traced.ops_per_s())?
            / measured("reference ops_per_s", reference.ops_per_s())?,
    );
    m.insert(
        "obs.events_per_op",
        ratio(sums.events as f64, traced.measured_ops as f64),
    );
    m.insert("obs.dropped_events", sums.dropped as f64);
    m.insert("proc.peak_rss_mb", peak_rss_mb);
    m.insert(
        "proc.cpu_per_wall",
        ratio(reference.usage.cpu_s, reference.wall_s),
    );
    m.insert(
        "proc.ctx_switches_per_op",
        ratio(reference.usage.ctx_switches, reference.measured_ops as f64),
    );
    m.insert("proc.threads", reference.threads);
    m.insert("bench.window_spread", reference.window_spread());
    m.insert(
        "bench.failed_ops_share",
        ratio(reference.failed as f64, reference.attempted as f64),
    );

    let mut notes = Vec::new();
    sample_notes(&reference, &mut notes);
    notes.push(format!("trace written to {}", trace_path.display()));
    Ok(Report {
        attempted: reference.attempted + traced.attempted,
        failed: reference.failed + traced.failed,
        metrics: m,
        notes,
    })
}

/// The last line of standard output: one JSON object holding `values`
/// (from [`Report::values`]) under `names`.
pub fn result_line(
    report: &Report,
    names: &[(&'static str, &'static str)],
    values: &[f64],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, ((name, unit), v)) in names.iter().zip(values).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
