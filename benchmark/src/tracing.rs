//! The traced run's span plumbing: a stamping sink in front of a
//! `RingSink`, per-layer span sums out of `SpanForest`, and the
//! `trace-<workload>.jsonl` writer.
//!
//! The repo's span plane records *durations* (`elapsed_us`) on a logical
//! clock, not wall-clock starts. [`StampedRing`] notes the wall-clock
//! instant of every `SpanBegin` as it passes, so the written trace can
//! place the repo's own spans inside the harness root span of the op that
//! caused them.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use snapshot_obs::{Event, RingSink, Sink, SpanForest, SpanKind, Trace, TraceEvent};

use crate::drive::{OpSpan, KIND_NAMES, SCAN, SUBSET, UPDATE};
use crate::{CLIENTS, SEGMENTS};

/// Events kept per emitting pid; older ones are evicted and counted in
/// `obs.dropped_events`.
pub const RING_CAPACITY: usize = 1 << 17;
/// Events per `SpanForest::build` call (its lookups are linear in the
/// number of spans, so the drained trace is folded in chunks cut at
/// root-span boundaries).
const FOREST_CHUNK: usize = 4096;
/// Newest ops per client written to the trace file.
const FILE_OPS: usize = 2000;

#[derive(Debug, Default)]
struct PidStamps {
    events: u64,
    begins: VecDeque<(u64, u64)>,
}

/// A `Sink` that counts events, stamps span begins with wall-clock time,
/// and forwards everything to a bounded [`RingSink`].
#[derive(Debug)]
pub struct StampedRing {
    ring: RingSink,
    stamps: Vec<Mutex<PidStamps>>,
    base: Instant,
}

impl StampedRing {
    /// A ring per lane; `base` is the instant timestamps count from.
    pub fn new(base: Instant) -> Self {
        StampedRing {
            ring: RingSink::new(SEGMENTS, RING_CAPACITY),
            stamps: (0..SEGMENTS).map(|_| Mutex::default()).collect(),
            base,
        }
    }

    /// Events emitted so far, per pid ring.
    pub fn events(&self) -> u64 {
        self.stamps
            .iter()
            .map(|s| s.lock().expect("stamp lock").events)
            .sum()
    }
}

impl Sink for StampedRing {
    fn emit(&self, event: TraceEvent) {
        {
            let mut stamps = self.stamps[event.pid.min(SEGMENTS - 1)]
                .lock()
                .expect("stamp lock");
            stamps.events += 1;
            if let Event::SpanBegin { id, .. } = event.event {
                if stamps.begins.len() == RING_CAPACITY {
                    stamps.begins.pop_front();
                }
                stamps
                    .begins
                    .push_back((id, self.base.elapsed().as_nanos() as u64));
            }
        }
        self.ring.emit(event);
    }
}

/// The trace plane handed to the stack builders: disabled for untraced
/// runs, a [`StampedRing`] for traced ones.
#[derive(Clone, Debug)]
pub struct Plane {
    /// What the builders attach through the public `with_trace` hooks.
    pub trace: Trace,
    sink: Option<Arc<StampedRing>>,
}

impl Plane {
    /// No sink: `with_trace` gets a disabled trace, as by default.
    pub fn disabled() -> Self {
        Plane {
            trace: Trace::disabled(),
            sink: None,
        }
    }

    /// A recording plane.
    pub fn recording(base: Instant) -> Self {
        let sink = Arc::new(StampedRing::new(base));
        Plane {
            trace: Trace::new(sink.clone()),
            sink: Some(sink),
        }
    }
}

/// One span of the written trace.
#[derive(Clone, Debug)]
pub struct FileSpan {
    /// Unique within the file.
    pub id: String,
    /// The causing span, if any.
    pub parent: Option<String>,
    /// Span name (`scan`, `quorum_query`, `registers.epoch_read`, …).
    pub name: String,
    /// Crate/module the span belongs to.
    pub layer: &'static str,
    /// Request id shared by every span of one op.
    pub request: Option<String>,
    /// Start, ns since the run's base instant.
    pub start_ns: u64,
    /// End, ns since the run's base instant.
    pub end_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Span-derived per-layer sums.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanSums {
    /// Mean µs a full scan spent inside `quorum_query` spans.
    pub quorum_query_us_per_scan: f64,
    /// Mean µs an update spent inside its `quorum_store` span.
    pub quorum_store_us_per_update: f64,
    /// Mean µs a full scan spent parked in a coalescing cohort.
    pub coalesce_park_us_per_scan: f64,
    /// Mean µs an op spent in retry backoff.
    pub backoff_us_per_op: f64,
    /// Events emitted on the plane.
    pub events: u64,
    /// Events evicted from the bounded ring.
    pub dropped: u64,
}

fn layer_of(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::QuorumQuery | SpanKind::QuorumStore => "abd",
        _ => "service",
    }
}

fn root_kind_index(kind: SpanKind) -> Option<usize> {
    match kind {
        SpanKind::Scan => Some(SCAN),
        SpanKind::Update => Some(UPDATE),
        SpanKind::PartialScan => Some(SUBSET),
        _ => None,
    }
}

/// Folds the plane's retained events into per-layer sums and, aligned
/// with the harness op spans, into file spans.
pub fn analyze(plane: &Plane, harness: &[VecDeque<OpSpan>; CLIENTS]) -> (SpanSums, Vec<FileSpan>) {
    let mut file = Vec::new();
    let Some(sink) = &plane.sink else {
        for (client, spans) in harness.iter().enumerate() {
            harness_only(client, spans, &mut file);
        }
        return (SpanSums::default(), file);
    };
    let events = sink.ring.drain();
    let mut sums = SpanSums {
        events: sink.events(),
        dropped: sink.ring.dropped(),
        ..SpanSums::default()
    };
    // [root kind][descendant kind] -> µs, and roots seen per kind.
    let mut us = [[0u64; 4]; 3];
    let mut roots = [0u64; 3];
    for (client, ops) in harness.iter().enumerate() {
        let stamps: HashMap<u64, u64> = sink.stamps[client]
            .lock()
            .expect("stamp lock")
            .begins
            .iter()
            .copied()
            .collect();
        let mine: Vec<TraceEvent> = events.iter().filter(|e| e.pid == client).copied().collect();
        // Per-root records in begin order, for the alignment below.
        let mut trees: Vec<(usize, Vec<FileSpan>)> = Vec::new();
        let is_root_begin = |e: &TraceEvent| matches!(e.event, Event::SpanBegin { parent: 0, .. });
        let first_root = mine.iter().position(is_root_begin).unwrap_or(mine.len());
        let mut chunk_start = first_root;
        while chunk_start < mine.len() {
            let mut end = (chunk_start + FOREST_CHUNK).min(mine.len());
            while end < mine.len() && !is_root_begin(&mine[end]) {
                end += 1;
            }
            let forest = SpanForest::build(&mine[chunk_start..end]);
            chunk_start = end;
            let nodes = forest.nodes();
            let index: HashMap<u64, usize> =
                nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
            let root_of = |mut i: usize| {
                while nodes[i].parent != 0 {
                    match index.get(&nodes[i].parent) {
                        Some(&p) => i = p,
                        None => return None,
                    }
                }
                Some(i)
            };
            let mut tree_of_root: HashMap<usize, usize> = HashMap::new();
            for (i, node) in nodes.iter().enumerate() {
                let Some(root) = root_of(i) else { continue };
                let Some(rk) = root_kind_index(nodes[root].kind) else {
                    continue;
                };
                if nodes[root].status.is_none() {
                    continue; // cut off by the end of the run
                }
                let column = match node.kind {
                    SpanKind::QuorumQuery => Some(0),
                    SpanKind::QuorumStore => Some(1),
                    SpanKind::CoalescePark => Some(2),
                    SpanKind::Backoff => Some(3),
                    _ => None,
                };
                if let Some(c) = column {
                    us[rk][c] += node.elapsed_us;
                }
                if i == root {
                    roots[rk] += 1;
                    tree_of_root.insert(root, trees.len());
                    trees.push((rk, Vec::new()));
                }
                let children_us: u64 = node
                    .children
                    .iter()
                    .filter_map(|c| index.get(c))
                    .map(|&c| nodes[c].elapsed_us)
                    .sum();
                let start_ns = stamps.get(&node.id).copied().unwrap_or(0);
                let tree = tree_of_root[&root];
                trees[tree].1.push(FileSpan {
                    id: format!("s{}", node.id),
                    parent: (node.parent != 0).then(|| format!("s{}", node.parent)),
                    name: node.kind.name().to_string(),
                    layer: layer_of(node.kind),
                    request: None,
                    start_ns,
                    end_ns: start_ns + node.elapsed_us * 1000,
                    self_ns: node.elapsed_us.saturating_sub(children_us) * 1000,
                });
            }
        }
        // The k-th newest repo root on this pid belongs to the k-th
        // newest harness op of this client: both are evicted oldest
        // first, and nothing else runs on a client's lane.
        let take = FILE_OPS.min(ops.len());
        let mut tree_iter = trees.into_iter().rev();
        let mut tail: Vec<Vec<FileSpan>> = Vec::new();
        let mut aligned = true;
        for (back, op) in ops.iter().rev().take(take).enumerate() {
            let n = ops.len() - 1 - back;
            let request = format!("c{client}-{n}");
            let root_id = format!("h{client}-{n}");
            let mut spans = Vec::new();
            let mut children_ns = 0;
            if aligned {
                match tree_iter.next() {
                    Some((rk, tree)) if rk == op.kind as usize => {
                        for mut span in tree {
                            if span.parent.is_none() {
                                span.parent = Some(root_id.clone());
                                children_ns += span.end_ns - span.start_ns;
                            }
                            span.request = Some(request.clone());
                            spans.push(span);
                        }
                    }
                    _ => aligned = false,
                }
            }
            let dur = op.end_ns - op.start_ns;
            spans.insert(
                0,
                FileSpan {
                    id: root_id,
                    parent: None,
                    name: KIND_NAMES[op.kind as usize].to_string(),
                    layer: "harness",
                    request: Some(request),
                    start_ns: op.start_ns,
                    end_ns: op.end_ns,
                    self_ns: dur.saturating_sub(children_ns),
                },
            );
            tail.push(spans);
        }
        file.extend(tail.into_iter().rev().flatten());
    }
    let per = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
    sums.quorum_query_us_per_scan = per(us[SCAN][0], roots[SCAN]);
    sums.quorum_store_us_per_update = per(us[UPDATE][1], roots[UPDATE]);
    sums.coalesce_park_us_per_scan = per(us[SCAN][2], roots[SCAN]);
    sums.backoff_us_per_op = per(us.iter().map(|row| row[3]).sum(), roots.iter().sum());
    (sums, file)
}

fn harness_only(client: usize, spans: &VecDeque<OpSpan>, file: &mut Vec<FileSpan>) {
    let skip = spans.len().saturating_sub(FILE_OPS);
    for (n, op) in spans.iter().enumerate().skip(skip) {
        file.push(FileSpan {
            id: format!("h{client}-{n}"),
            parent: None,
            name: KIND_NAMES[op.kind as usize].to_string(),
            layer: "harness",
            request: Some(format!("c{client}-{n}")),
            start_ns: op.start_ns,
            end_ns: op.end_ns,
            self_ns: op.end_ns - op.start_ns,
        });
    }
}

/// Writes `spans` as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[FileSpan]) -> std::io::Result<()> {
    let mut out = String::new();
    let quoted = |s: &Option<String>| {
        s.as_ref()
            .map_or("null".to_string(), |s| format!("\"{s}\""))
    };
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":\"{}\",\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            quoted(&s.parent),
            s.name,
            s.layer,
            quoted(&s.request),
            s.start_ns,
            s.end_ns,
            s.self_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
