//! The typed event taxonomy.
//!
//! Every proof-relevant step in the reproduction — a double-collect round,
//! a handshake transition, a borrow decision, an ABD quorum phase — maps to
//! one [`Event`] variant. Events are small `Copy` values so emitting one
//! into a sink never allocates on the hot path.

use std::fmt;

/// Which snapshot algorithm emitted an event.
///
/// Mirrors the constructions of the paper: the unbounded single-writer
/// protocol (Fig. 2), the bounded single-writer protocol (Fig. 3), the
/// multi-writer protocol (Fig. 4), and the non-wait-free double-collect
/// baseline of Section 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Unbounded single-writer snapshot (Fig. 2).
    UnboundedSw,
    /// Bounded single-writer snapshot with handshake bits (Fig. 3).
    BoundedSw,
    /// Multi-writer snapshot (Fig. 4).
    MultiWriter,
    /// Plain double-collect scan (not wait-free; Section 2 baseline).
    DoubleCollect,
}

impl Algo {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Algo::UnboundedSw => "unbounded_sw",
            Algo::BoundedSw => "bounded_sw",
            Algo::MultiWriter => "multi_writer",
            Algo::DoubleCollect => "double_collect",
        }
    }
}

/// Outcome of one double-collect round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoundOutcome {
    /// The two collects were equal (no observed movement): the round
    /// yields a direct scan.
    Clean,
    /// At least one register moved between the collects; the scanner
    /// retries or borrows.
    Moved,
}

impl RoundOutcome {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            RoundOutcome::Clean => "clean",
            RoundOutcome::Moved => "moved",
        }
    }
}

/// Kind of primitive register operation, as seen by the scheduler or the
/// instrumented register layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegOp {
    /// A primitive register read.
    Read,
    /// A primitive register write.
    Write,
}

impl RegOp {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            RegOp::Read => "read",
            RegOp::Write => "write",
        }
    }
}

/// Which ABD quorum phase an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbdPhaseKind {
    /// The read/query phase (collect `(tag, value)` from a majority).
    Query,
    /// The write-back/store phase (push `(tag, value)` to a majority).
    Store,
}

impl AbdPhaseKind {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            AbdPhaseKind::Query => "query",
            AbdPhaseKind::Store => "store",
        }
    }
}

/// What a causal span covers; the span taxonomy of the request-scoped
/// tracing plane (DESIGN.md §12).
///
/// Each kind names one phase a service request can spend wall-clock time
/// in, so a reconstructed span tree attributes a stall to a named phase:
/// quorum wait ([`SpanKind::QuorumQuery`] / [`SpanKind::QuorumStore`] /
/// [`SpanKind::Collect`]) or retry backoff ([`SpanKind::Backoff`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A full service scan, admission to reply.
    Scan,
    /// A partial (subset) service scan, admission to reply.
    PartialScan,
    /// A service update, admission to reply.
    Update,
    /// A health probe against one shard.
    Probe,
    /// One attempt inside a request's retry budget.
    Attempt,
    /// Time parked waiting for another request's collect. The service no
    /// longer opens this span (every scan runs its own collect); the kind
    /// stays only because the reference benchmark's span analysis still
    /// matches on it, and goes when that analysis is re-pinned.
    CoalescePark,
    /// A collect pass over the backing registers (one of the two halves
    /// of a double collect, or a certified partial collect).
    Collect,
    /// Time the retry loop slept between attempts.
    Backoff,
    /// An ABD query-phase quorum wait.
    QuorumQuery,
    /// An ABD store-phase quorum wait.
    QuorumStore,
}

impl SpanKind {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Scan => "scan",
            SpanKind::PartialScan => "partial_scan",
            SpanKind::Update => "update",
            SpanKind::Probe => "probe",
            SpanKind::Attempt => "attempt",
            SpanKind::CoalescePark => "coalesce_park",
            SpanKind::Collect => "collect",
            SpanKind::Backoff => "backoff",
            SpanKind::QuorumQuery => "quorum_query",
            SpanKind::QuorumStore => "quorum_store",
        }
    }
}

/// How a causal span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanStatus {
    /// The spanned phase completed normally.
    Ok,
    /// The spanned phase surfaced a backend error.
    Error,
    /// The spanned phase ran out of its request's deadline budget.
    Expired,
    /// The spanned phase was shed by admission control or a health gate.
    Shed,
}

impl SpanStatus {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Error => "error",
            SpanStatus::Expired => "expired",
            SpanStatus::Shed => "shed",
        }
    }
}

/// A single typed trace event.
///
/// The variants cover the three layers the reproduction instruments:
///
/// * **snapshot-core** — scan/update spans, double-collect rounds,
///   handshake and toggle transitions, and borrow decisions;
/// * **snapshot-registers / snapshot-sim** — primitive register operations
///   and deterministic scheduler steps;
/// * **snapshot-abd** — quorum phase lifecycle (start, retransmit,
///   quorum reached / failed);
/// * **snapshot-service** — admission rejections, partial-collect
///   outcomes, and the fault path (backend errors, retry exhaustion,
///   shard degradation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A scan operation began.
    ScanBegin {
        /// The algorithm performing the scan.
        algo: Algo,
    },
    /// A scan operation completed.
    ScanEnd {
        /// The algorithm performing the scan.
        algo: Algo,
        /// Double-collect rounds the scan used.
        double_collects: u32,
        /// Whether the scan returned a borrowed (embedded) view.
        borrowed: bool,
    },
    /// An update operation began.
    UpdateBegin {
        /// The algorithm performing the update.
        algo: Algo,
    },
    /// An update operation completed.
    UpdateEnd {
        /// The algorithm performing the update.
        algo: Algo,
        /// Double-collect rounds used by the embedded scan (0 when the
        /// algorithm embeds no scan, e.g. the double-collect baseline).
        double_collects: u32,
    },
    /// A double-collect round began.
    RoundStart {
        /// The algorithm performing the round.
        algo: Algo,
        /// 1-based round index within the current scan.
        round: u32,
    },
    /// A double-collect round ended.
    RoundEnd {
        /// The algorithm performing the round.
        algo: Algo,
        /// 1-based round index within the current scan.
        round: u32,
        /// Whether the two collects agreed.
        outcome: RoundOutcome,
    },
    /// A scanner copied a partner's handshake bit (`q[i][j] := p[j][i]`,
    /// Fig. 3 line 1a / Fig. 4 line 1).
    HandshakeCopy {
        /// The partner process whose bit was copied.
        partner: usize,
        /// The copied bit value.
        bit: bool,
    },
    /// An updater flipped its handshake bit against a partner
    /// (`p[i][j] := ¬q[j][i]`, Fig. 3 line 0 / Fig. 4 line 0).
    HandshakeFlip {
        /// The partner process the bit is aimed at.
        partner: usize,
        /// The new bit value.
        bit: bool,
    },
    /// An updater flipped a toggle as part of publishing a new value.
    ToggleFlip {
        /// The word (multi-writer) or register index (single-writer)
        /// whose toggle flipped.
        word: usize,
        /// The new toggle value.
        toggle: bool,
    },
    /// A scanner decided to borrow an embedded view instead of collecting
    /// one itself (Observation 2 / Lemma 4.2).
    BorrowDecision {
        /// The process whose embedded view is returned.
        lender: usize,
        /// How many moves of the lender the scanner had observed when it
        /// borrowed: 2 for the single-writer protocols, 3 for the
        /// multi-writer protocol.
        moved: u8,
    },
    /// A primitive register read observed by the instrumentation layer.
    RegisterRead,
    /// A primitive register write observed by the instrumentation layer.
    RegisterWrite,
    /// The deterministic simulator granted one step to a process.
    ScheduleStep {
        /// Global 0-based step index (the scheduler's own counter).
        step: u64,
        /// The primitive operation the granted step performs.
        op: RegOp,
    },
    /// An ABD quorum phase started.
    AbdPhaseStart {
        /// Which phase.
        phase: AbdPhaseKind,
    },
    /// An ABD quorum phase retransmitted to replicas that had not acked.
    AbdRetransmit {
        /// Which phase.
        phase: AbdPhaseKind,
        /// 1-based retransmission attempt number.
        attempt: u32,
        /// Number of replicas the retransmission was sent to.
        resent: usize,
    },
    /// An ABD quorum phase reached a majority of acks.
    AbdQuorumReached {
        /// Which phase.
        phase: AbdPhaseKind,
        /// Acks collected when the quorum was declared.
        acks: usize,
        /// Wall-clock phase latency in microseconds.
        elapsed_us: u64,
    },
    /// An ABD quorum phase timed out before reaching a majority.
    AbdQuorumFailed {
        /// Which phase.
        phase: AbdPhaseKind,
        /// Acks collected when the deadline expired.
        acks: usize,
        /// Acks that would have been needed for a quorum.
        needed: usize,
    },
    /// The service rejected a request at admission: the in-flight budget
    /// was exhausted (typed backpressure instead of queueing).
    ServiceOverload {
        /// Other requests in flight when the rejection was issued.
        inflight: usize,
    },
    /// A service-layer partial collect completed.
    PartialCollect {
        /// Number of segments the caller requested.
        segments: usize,
        /// Double collects the backing's native subset scan ran (0 when
        /// the request fell back, or covered every segment and was served
        /// as a full scan).
        rounds: u32,
        /// Whether the partial scan fell back to projecting a full scan.
        fallback: bool,
    },
    /// A partial scan's native subset path yielded nothing (the backing
    /// has none, or its interference budget ran out) and the collect fell
    /// back to projecting a full scan. Emitted alongside the summarizing
    /// [`PartialCollect`](Event::PartialCollect).
    PartialFallback {
        /// Number of segments the collect covered.
        segments: usize,
    },
    /// A fallible backing core returned an error to the service layer
    /// (e.g. an ABD quorum phase starved without a majority).
    BackendError {
        /// 1-based attempt number within the request's retry budget.
        attempt: u32,
        /// Whether the error is transient (retrying may succeed once the
        /// backing heals).
        retryable: bool,
    },
    /// A service request exhausted its retry budget and surfaced the
    /// backend error to the caller.
    RetryExhausted {
        /// Attempts consumed (including the first).
        attempts: u32,
    },
    /// The service shed a request at a shard's gate: the breaker is open,
    /// or its half-open ramp is not yet admitting this priority class.
    ShardShed {
        /// The shedding shard.
        shard: usize,
        /// Priority rank of the shed request (0 = bulk … 3 = probe).
        rank: u8,
        /// Jittered microsecond hint for when a retry is worth trying.
        retry_after_us: u64,
    },
    /// A service request's wall-clock budget ran out before the operation
    /// could finish: it returned a typed error instead of parking.
    DeadlineExceeded {
        /// Attempts started before the budget expired (0 if admission
        /// itself was already past the deadline).
        attempts: u32,
        /// The budget the request was given, in microseconds.
        budget_us: u64,
    },
    /// A causal span opened. The span's id is its begin event's `seq + 1`,
    /// so ids are globally unique on the shared clock axis and `0` can
    /// mean "no parent".
    SpanBegin {
        /// This span's id (begin `seq + 1`; never 0).
        id: u64,
        /// The parent span's id, or 0 for a root span.
        parent: u64,
        /// What the span covers.
        kind: SpanKind,
    },
    /// A causal span closed.
    SpanEnd {
        /// The id assigned at [`Event::SpanBegin`].
        id: u64,
        /// What the span covered (repeated so an end is self-describing
        /// even when the begin was evicted from a bounded ring).
        kind: SpanKind,
        /// How the spanned phase ended.
        status: SpanStatus,
        /// Wall-clock time the span was open, in microseconds.
        elapsed_us: u64,
    },
    /// A key/value annotation attached to an open span.
    SpanNote {
        /// The annotated span's id.
        id: u64,
        /// Static attribute name.
        key: &'static str,
        /// Attribute value.
        value: u64,
    },
    /// A shard's windowed circuit breaker tripped open on this recorded
    /// outcome (rate past threshold at volume, or a terminal error).
    BreakerTrip {
        /// The tripped shard.
        shard: usize,
        /// Lifetime trip count for the shard, including this one.
        trips: u64,
    },
    /// A real-transport client dialed (or redialed) a replica endpoint.
    TransportDial {
        /// The replica index being dialed.
        replica: usize,
        /// 1-based dial attempt since the last successful connection.
        attempt: u32,
    },
    /// A real-transport client completed the wire handshake with a
    /// replica, whose frames are written to the socket again.
    TransportConnected {
        /// The connected replica index.
        replica: usize,
        /// Dial attempts it took to get here (1 = first try).
        attempt: u32,
    },
    /// A real-transport connection to a replica was severed; frames sent
    /// while disconnected are dropped (ABD retransmission masks the loss)
    /// and the connection thread redials with capped backoff.
    TransportDropped {
        /// The disconnected replica index.
        replica: usize,
    },
    /// A replica store dropped a torn tail during recovery: the final
    /// log record was incomplete (the process died mid-append), so the
    /// log was truncated back to the last whole record.
    StoreTruncated {
        /// The recovering replica index.
        replica: usize,
        /// Bytes dropped from the end of the log.
        bytes: u64,
    },
    /// A replica store detected mid-log corruption during recovery: a
    /// *complete* record whose CRC32 did not match its body (or whose
    /// header was unparseable). Unlike a torn tail this is silent data
    /// damage, never a crash artifact.
    StoreCorrupt {
        /// The recovering replica index.
        replica: usize,
        /// Byte offset of the corrupt record in the log file.
        offset: u64,
        /// True when the recovery policy truncated the log from the
        /// corrupt record onward; false when recovery was refused.
        truncated: bool,
    },
    /// A replica store wrote a durable checkpoint (atomic
    /// write-new-then-rename) and truncated its log, bounding the next
    /// restart's replay to O(live registers).
    StoreCheckpoint {
        /// The checkpointing replica index.
        replica: usize,
        /// Registers captured in the checkpoint.
        registers: u64,
        /// Size of the checkpoint file in bytes.
        bytes: u64,
    },
    /// A replica store's checkpoint attempt failed (tmp write, rename,
    /// or post-rename log truncate error). The log keeps growing and the
    /// next threshold crossing retries; also counted in
    /// `snapshotd.store.checkpoint_failures`.
    StoreCheckpointFailed {
        /// The checkpointing replica index.
        replica: usize,
    },
    /// A replica store finished replaying its durable state on startup.
    StoreReplayed {
        /// The recovering replica index.
        replica: usize,
        /// Registers restored from the checkpoint file.
        checkpoint_registers: u64,
        /// Log records replayed on top of the checkpoint.
        records: u64,
        /// Replay wall time in microseconds.
        elapsed_us: u64,
    },
}

/// One field value of an [`Event`]: a number, a bool, or a static name
/// from the taxonomy (rendered quoted in JSON, bare elsewhere).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Value {
    Num(u64),
    Bool(bool),
    Name(&'static str),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Num(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Name(name) => f.write_str(name),
        }
    }
}

/// The most fields any variant carries.
const MAX_FIELDS: usize = 4;

/// An event's kind name and its `(key, value)` fields in export order,
/// held inline so building one never allocates.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fields {
    pub(crate) kind: &'static str,
    len: usize,
    pairs: [(&'static str, Value); MAX_FIELDS],
}

impl Fields {
    fn new<const N: usize>(kind: &'static str, pairs: [(&'static str, Value); N]) -> Self {
        let mut all = [("", Value::Num(0)); MAX_FIELDS];
        all[..N].copy_from_slice(&pairs);
        Fields { kind, len: N, pairs: all }
    }

    /// The fields, in the order the exporters write them.
    pub(crate) fn pairs(&self) -> &[(&'static str, Value)] {
        &self.pairs[..self.len]
    }
}

impl Event {
    /// The variant's kind name and fields: the one place that lists them.
    /// [`Event::kind`], `Display` and both exporters render from it.
    #[inline]
    pub(crate) fn fields(&self) -> Fields {
        use Value::{Bool, Name, Num};
        match *self {
            Event::ScanBegin { algo } => Fields::new("scan_begin", [("algo", Name(algo.name()))]),
            Event::ScanEnd { algo, double_collects, borrowed } => Fields::new(
                "scan_end",
                [
                    ("algo", Name(algo.name())),
                    ("double_collects", Num(double_collects as u64)),
                    ("borrowed", Bool(borrowed)),
                ],
            ),
            Event::UpdateBegin { algo } => {
                Fields::new("update_begin", [("algo", Name(algo.name()))])
            }
            Event::UpdateEnd { algo, double_collects } => Fields::new(
                "update_end",
                [("algo", Name(algo.name())), ("double_collects", Num(double_collects as u64))],
            ),
            Event::RoundStart { algo, round } => Fields::new(
                "round_start",
                [("algo", Name(algo.name())), ("round", Num(round as u64))],
            ),
            Event::RoundEnd { algo, round, outcome } => Fields::new(
                "round_end",
                [
                    ("algo", Name(algo.name())),
                    ("round", Num(round as u64)),
                    ("outcome", Name(outcome.name())),
                ],
            ),
            Event::HandshakeCopy { partner, bit } => Fields::new(
                "handshake_copy",
                [("partner", Num(partner as u64)), ("bit", Bool(bit))],
            ),
            Event::HandshakeFlip { partner, bit } => Fields::new(
                "handshake_flip",
                [("partner", Num(partner as u64)), ("bit", Bool(bit))],
            ),
            Event::ToggleFlip { word, toggle } => {
                Fields::new("toggle_flip", [("word", Num(word as u64)), ("toggle", Bool(toggle))])
            }
            Event::BorrowDecision { lender, moved } => Fields::new(
                "borrow_decision",
                [("lender", Num(lender as u64)), ("moved", Num(moved as u64))],
            ),
            Event::RegisterRead => Fields::new("register_read", []),
            Event::RegisterWrite => Fields::new("register_write", []),
            Event::ScheduleStep { step, op } => {
                Fields::new("schedule_step", [("step", Num(step)), ("op", Name(op.name()))])
            }
            Event::AbdPhaseStart { phase } => {
                Fields::new("abd_phase_start", [("phase", Name(phase.name()))])
            }
            Event::AbdRetransmit { phase, attempt, resent } => Fields::new(
                "abd_retransmit",
                [
                    ("phase", Name(phase.name())),
                    ("attempt", Num(attempt as u64)),
                    ("resent", Num(resent as u64)),
                ],
            ),
            Event::AbdQuorumReached { phase, acks, elapsed_us } => Fields::new(
                "abd_quorum_reached",
                [
                    ("phase", Name(phase.name())),
                    ("acks", Num(acks as u64)),
                    ("elapsed_us", Num(elapsed_us)),
                ],
            ),
            Event::AbdQuorumFailed { phase, acks, needed } => Fields::new(
                "abd_quorum_failed",
                [
                    ("phase", Name(phase.name())),
                    ("acks", Num(acks as u64)),
                    ("needed", Num(needed as u64)),
                ],
            ),
            Event::ServiceOverload { inflight } => {
                Fields::new("service_overload", [("inflight", Num(inflight as u64))])
            }
            Event::PartialCollect { segments, rounds, fallback } => Fields::new(
                "partial_collect",
                [
                    ("segments", Num(segments as u64)),
                    ("rounds", Num(rounds as u64)),
                    ("fallback", Bool(fallback)),
                ],
            ),
            Event::PartialFallback { segments } => {
                Fields::new("partial_fallback", [("segments", Num(segments as u64))])
            }
            Event::BackendError { attempt, retryable } => Fields::new(
                "backend_error",
                [("attempt", Num(attempt as u64)), ("retryable", Bool(retryable))],
            ),
            Event::RetryExhausted { attempts } => {
                Fields::new("retry_exhausted", [("attempts", Num(attempts as u64))])
            }
            Event::ShardShed { shard, rank, retry_after_us } => Fields::new(
                "shard_shed",
                [
                    ("shard", Num(shard as u64)),
                    ("rank", Num(rank as u64)),
                    ("retry_after_us", Num(retry_after_us)),
                ],
            ),
            Event::DeadlineExceeded { attempts, budget_us } => Fields::new(
                "deadline_exceeded",
                [("attempts", Num(attempts as u64)), ("budget_us", Num(budget_us))],
            ),
            Event::SpanBegin { id, parent, kind } => Fields::new(
                "span_begin",
                [("id", Num(id)), ("parent", Num(parent)), ("span", Name(kind.name()))],
            ),
            Event::SpanEnd { id, kind, status, elapsed_us } => Fields::new(
                "span_end",
                [
                    ("id", Num(id)),
                    ("span", Name(kind.name())),
                    ("status", Name(status.name())),
                    ("elapsed_us", Num(elapsed_us)),
                ],
            ),
            Event::SpanNote { id, key, value } => Fields::new(
                "span_note",
                [("id", Num(id)), ("key", Name(key)), ("value", Num(value))],
            ),
            Event::BreakerTrip { shard, trips } => {
                Fields::new("breaker_trip", [("shard", Num(shard as u64)), ("trips", Num(trips))])
            }
            Event::TransportDial { replica, attempt } => Fields::new(
                "transport_dial",
                [("replica", Num(replica as u64)), ("attempt", Num(attempt as u64))],
            ),
            Event::TransportConnected { replica, attempt } => Fields::new(
                "transport_connected",
                [("replica", Num(replica as u64)), ("attempt", Num(attempt as u64))],
            ),
            Event::TransportDropped { replica } => {
                Fields::new("transport_dropped", [("replica", Num(replica as u64))])
            }
            Event::StoreTruncated { replica, bytes } => Fields::new(
                "store_truncated",
                [("replica", Num(replica as u64)), ("bytes", Num(bytes))],
            ),
            Event::StoreCorrupt { replica, offset, truncated } => Fields::new(
                "store_corrupt",
                [
                    ("replica", Num(replica as u64)),
                    ("offset", Num(offset)),
                    ("truncated", Bool(truncated)),
                ],
            ),
            Event::StoreCheckpoint { replica, registers, bytes } => Fields::new(
                "store_checkpoint",
                [
                    ("replica", Num(replica as u64)),
                    ("registers", Num(registers)),
                    ("bytes", Num(bytes)),
                ],
            ),
            Event::StoreCheckpointFailed { replica } => {
                Fields::new("store_checkpoint_failed", [("replica", Num(replica as u64))])
            }
            Event::StoreReplayed { replica, checkpoint_registers, records, elapsed_us } => {
                Fields::new(
                    "store_replayed",
                    [
                        ("replica", Num(replica as u64)),
                        ("checkpoint_registers", Num(checkpoint_registers)),
                        ("records", Num(records)),
                        ("elapsed_us", Num(elapsed_us)),
                    ],
                )
            }
        }
    }

    /// Stable snake_case name of the variant, used as the JSON `kind`
    /// field and the chrome://tracing event name.
    pub fn kind(&self) -> &'static str {
        self.fields().kind
    }
}

/// `kind(key=value, …)` with the JSON keys, or the bare kind for a
/// variant without fields.
impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields = self.fields();
        f.write_str(fields.kind)?;
        for (i, (key, value)) in fields.pairs().iter().enumerate() {
            let sep = if i == 0 { "(" } else { ", " };
            write!(f, "{sep}{key}={value}")?;
        }
        if fields.pairs().is_empty() {
            Ok(())
        } else {
            f.write_str(")")
        }
    }
}

/// A trace event stamped with its global sequence number and the emitting
/// process.
///
/// `seq` comes from the [`Clock`](crate::Clock) shared by every traced
/// component (and, optionally, by the linearizability recorder), so sorting
/// by `seq` recovers one total order over operations *and* events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (total order across processes).
    pub seq: u64,
    /// Emitting process id.
    pub pid: usize,
    /// The typed payload.
    pub event: Event,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:<5} P{:<3} {}", self.seq, self.pid, self.event)
    }
}
