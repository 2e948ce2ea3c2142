//! Offline reconstruction of span trees from a flat event sequence.
//!
//! [`SpanForest::build`] folds the `Span*` events out of a drained trace
//! (or a [`FlightDump`](crate::FlightDump)) into parent-linked
//! [`SpanNode`]s, so a test — or a human reading a flight recording —
//! can ask the questions the causal plane exists to answer: what did
//! this request spend its budget on ([`SpanForest::attribute_stall`]),
//! and do the spans nest the way the code claims ([`SpanForest::check`]).

use std::fmt;

use crate::event::{Event, SpanKind, SpanStatus, TraceEvent};

/// One reconstructed span.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The span's id (begin seq + 1).
    pub id: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// What the span covered.
    pub kind: SpanKind,
    /// Pid that opened the span.
    pub pid: usize,
    /// Sequence number of the begin event.
    pub begin_seq: u64,
    /// Sequence number of the end event, if the end was observed.
    pub end_seq: Option<u64>,
    /// Terminal status, if the end was observed.
    pub status: Option<SpanStatus>,
    /// Wall-clock microseconds the span was open (0 until ended).
    pub elapsed_us: u64,
    /// `key = value` annotations, in emission order.
    pub notes: Vec<(&'static str, u64)>,
    /// Ids of child spans, in begin order.
    pub children: Vec<u64>,
}

impl SpanNode {
    /// Whether this span names a waiting phase a stall can be attributed
    /// to: a quorum wait ([`SpanKind::QuorumQuery`],
    /// [`SpanKind::QuorumStore`], [`SpanKind::Collect`]) or a retry
    /// backoff ([`SpanKind::Backoff`]).
    pub fn is_stall_phase(&self) -> bool {
        matches!(
            self.kind,
            SpanKind::QuorumQuery | SpanKind::QuorumStore | SpanKind::Collect | SpanKind::Backoff
        )
    }
}

/// The span trees reconstructed from one event sequence.
#[derive(Clone, Debug, Default)]
pub struct SpanForest {
    nodes: Vec<SpanNode>,
    /// Span events whose begin was not in the input (evicted from a
    /// bounded ring, or malformed instrumentation — [`SpanForest::check`]
    /// tells them apart from a full trace).
    orphans: Vec<TraceEvent>,
}

impl SpanForest {
    /// Folds the `Span*` events in `events` (any other kinds are ignored)
    /// into a forest. `events` must be seq-ordered, as produced by
    /// [`RingSink::drain`](crate::RingSink::drain) or a flight dump.
    pub fn build(events: &[TraceEvent]) -> Self {
        let mut forest = SpanForest::default();
        for e in events {
            match e.event {
                Event::SpanBegin { id, parent, kind } => {
                    forest.nodes.push(SpanNode {
                        id,
                        parent,
                        kind,
                        pid: e.pid,
                        begin_seq: e.seq,
                        end_seq: None,
                        status: None,
                        elapsed_us: 0,
                        notes: Vec::new(),
                        children: Vec::new(),
                    });
                }
                Event::SpanEnd { id, status, elapsed_us, .. } => {
                    match forest.index_of(id) {
                        Some(i) if forest.nodes[i].end_seq.is_none() => {
                            forest.nodes[i].end_seq = Some(e.seq);
                            forest.nodes[i].status = Some(status);
                            forest.nodes[i].elapsed_us = elapsed_us;
                        }
                        _ => forest.orphans.push(*e),
                    }
                }
                Event::SpanNote { id, key, value } => match forest.index_of(id) {
                    Some(i) => forest.nodes[i].notes.push((key, value)),
                    None => forest.orphans.push(*e),
                },
                _ => {}
            }
        }
        for i in 0..forest.nodes.len() {
            let (id, parent) = (forest.nodes[i].id, forest.nodes[i].parent);
            if parent != 0 {
                if let Some(p) = forest.index_of(parent) {
                    forest.nodes[p].children.push(id);
                }
            }
        }
        forest
    }

    fn index_of(&self, id: u64) -> Option<usize> {
        self.nodes.iter().position(|n| n.id == id)
    }

    /// The node with the given id.
    pub fn node(&self, id: u64) -> Option<&SpanNode> {
        self.index_of(id).map(|i| &self.nodes[i])
    }

    /// All nodes, in begin order.
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Roots: spans with no parent, or whose parent's begin is not in the
    /// input (the subtree survived a ring eviction; still inspectable).
    pub fn roots(&self) -> Vec<&SpanNode> {
        self.nodes
            .iter()
            .filter(|n| n.parent == 0 || self.node(n.parent).is_none())
            .collect()
    }

    /// Span events that referenced a begin not present in the input.
    pub fn orphans(&self) -> &[TraceEvent] {
        &self.orphans
    }

    /// Ids on the path from `id` up to its root, inclusive, starting at
    /// `id`. Empty if `id` is unknown.
    pub fn path_to_root(&self, id: u64) -> Vec<u64> {
        let mut path = Vec::new();
        let mut cur = id;
        while let Some(n) = self.node(cur) {
            if path.contains(&n.id) {
                break; // defensive: malformed input with a parent cycle
            }
            path.push(n.id);
            cur = n.parent;
        }
        path
    }

    /// Ids of `id`'s subtree in depth-first order, excluding `id` itself.
    fn descendants(&self, id: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut stack: Vec<u64> = self.node(id).map(|n| n.children.clone()).unwrap_or_default();
        while let Some(next) = stack.pop() {
            if out.contains(&next) {
                continue;
            }
            out.push(next);
            if let Some(n) = self.node(next) {
                stack.extend(n.children.iter().copied());
            }
        }
        out
    }

    /// Attributes a stalled request to a named phase: the ended
    /// stall-phase descendant of `root` ([`SpanNode::is_stall_phase`])
    /// with the largest `elapsed_us`. Falls back to the slowest ended
    /// descendant of any kind, then `None` when the subtree has no ended
    /// descendants at all.
    pub fn attribute_stall(&self, root: u64) -> Option<&SpanNode> {
        let ended: Vec<&SpanNode> = self
            .descendants(root)
            .into_iter()
            .filter_map(|id| self.node(id))
            .filter(|n| n.end_seq.is_some())
            .collect();
        ended
            .iter()
            .filter(|n| n.is_stall_phase())
            .max_by_key(|n| n.elapsed_us)
            .or_else(|| ended.iter().max_by_key(|n| n.elapsed_us))
            .copied()
    }

    /// Checks the span-tree invariants a complete (non-evicted) trace
    /// must satisfy, returning the first violation:
    ///
    /// * every end/note referenced a begin in the input;
    /// * span ids are unique;
    /// * each end comes after its begin on the shared clock axis;
    /// * every span ended at most once and with the kind it began with
    ///   (enforced structurally by [`SpanForest::build`], which orphans
    ///   duplicate ends);
    /// * children nest inside their parent's `[begin, end]` window on
    ///   the seq axis.
    pub fn check(&self) -> Result<(), String> {
        if let Some(orphan) = self.orphans.first() {
            return Err(format!("span event without a matching begin: {orphan}"));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if self.nodes[..i].iter().any(|m| m.id == n.id) {
                return Err(format!("duplicate span id S{}", n.id));
            }
            if let Some(end) = n.end_seq {
                if end <= n.begin_seq {
                    return Err(format!(
                        "span S{} ends at seq {} before its begin at {}",
                        n.id, end, n.begin_seq
                    ));
                }
            }
            if n.parent != 0 {
                let p = self
                    .node(n.parent)
                    .ok_or_else(|| format!("span S{} has unknown parent S{}", n.id, n.parent))?;
                if n.begin_seq <= p.begin_seq {
                    return Err(format!(
                        "child S{} begins at seq {} outside parent S{} (begins {})",
                        n.id, n.begin_seq, p.id, p.begin_seq
                    ));
                }
                if let (Some(child_end), Some(parent_end)) = (n.end_seq, p.end_seq) {
                    if child_end >= parent_end {
                        return Err(format!(
                            "child S{} ends at seq {child_end} after parent S{} (ends {parent_end})",
                            n.id, p.id
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for SpanForest {
    /// An indented one-line-per-span rendering, roots first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn render(
            forest: &SpanForest,
            f: &mut fmt::Formatter<'_>,
            id: u64,
            depth: usize,
        ) -> fmt::Result {
            let Some(n) = forest.node(id) else { return Ok(()) };
            let status = n.status.map_or("open", |s| s.name());
            writeln!(
                f,
                "{:indent$}S{} {} [{status}] {}us pid={} seq={}..{}",
                "",
                n.id,
                n.kind.name(),
                n.elapsed_us,
                n.pid,
                n.begin_seq,
                n.end_seq.map_or("?".to_string(), |s| s.to_string()),
                indent = depth * 2,
            )?;
            for &child in &n.children {
                render(forest, f, child, depth + 1)?;
            }
            Ok(())
        }
        for root in self.roots() {
            render(self, f, root.id, 0)?;
        }
        Ok(())
    }
}
