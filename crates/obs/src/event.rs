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

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
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

impl fmt::Display for RoundOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
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

impl fmt::Display for RegOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
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

impl fmt::Display for AbdPhaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a causal span covers; the span taxonomy of the request-scoped
/// tracing plane (DESIGN.md §12).
///
/// Each kind names one phase a service request can spend wall-clock time
/// in, so a reconstructed span tree attributes a stall to a named phase:
/// quorum wait ([`SpanKind::QuorumQuery`] / [`SpanKind::QuorumStore`] /
/// [`SpanKind::Collect`]), coalesce park ([`SpanKind::CoalescePark`]), or
/// retry backoff ([`SpanKind::Backoff`]).
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
    /// Time spent parked in a coalescing cohort waiting for a leader's
    /// view (or for the seat, when electing).
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

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a causal span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanStatus {
    /// The spanned phase completed normally.
    Ok,
    /// The spanned phase surfaced a backend or cohort error.
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

impl fmt::Display for SpanStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
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
/// * **snapshot-service** — coalescing lead/join decisions, admission
///   rejections, partial-collect outcomes, and the fault path (backend
///   errors, leader abdications, retry exhaustion, shard degradation).
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
    /// A service-layer scan became the leader of a coalescing cohort and
    /// will run the underlying collect itself.
    CoalesceLead {
        /// The coalescing generation this leader's collect carries.
        generation: u64,
    },
    /// A service-layer scan joined a coalescing cohort, accepting a view
    /// whose collect started after this request (the paper's borrowed-view
    /// rule lifted to the service layer).
    CoalesceJoin {
        /// The generation of the accepted view (strictly greater than the
        /// generation current when this request arrived).
        generation: u64,
    },
    /// The service rejected a request at admission: the in-flight budget
    /// was exhausted (typed backpressure instead of queueing).
    ServiceOverload {
        /// Requests in flight when the rejection was issued.
        inflight: usize,
    },
    /// A service-layer partial collect completed.
    PartialCollect {
        /// Number of segments the caller requested.
        segments: usize,
        /// Double collects the backing's native subset scan ran (0 when
        /// the request fell back, joined a cohort, or covered every
        /// segment and was served as a full scan).
        rounds: u32,
        /// Whether the partial scan fell back to projecting a full scan.
        fallback: bool,
    },
    /// A partial scan's native subset path yielded nothing (the backing
    /// has none, or its interference budget ran out) and the collect fell
    /// back to projecting a full scan. Emitted by the request that ran
    /// the collect, alongside the summarizing
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
    /// A coalescing leader abdicated without publishing: its collect
    /// failed (or it panicked), the error was fanned out to the parked
    /// cohort, and the seat was freed so a waiter can re-elect.
    CoalesceAbdicate {
        /// The generation the abdicating leader held.
        generation: u64,
    },
    /// A service request exhausted its retry budget and surfaced the
    /// backend error to the caller.
    RetryExhausted {
        /// Attempts consumed (including the first).
        attempts: u32,
    },
    /// The service shed a request because a shard's health gate is open
    /// (circuit breaker tripped on the windowed backend error rate).
    ShardDegraded {
        /// The degraded shard.
        shard: usize,
        /// Microseconds until the gate half-opens for a probe.
        retry_after_us: u64,
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
    /// A cross-tree causal link: the annotated span consumed the result
    /// of another span (e.g. a coalesced joiner adopting the lead's
    /// collect). Rendered as a flow arrow in the chrome exporter.
    SpanFollows {
        /// The span that consumed the result.
        id: u64,
        /// The span whose result was consumed.
        from: u64,
    },
    /// A shard's windowed circuit breaker tripped open on this recorded
    /// outcome (rate past threshold at volume, or a terminal error).
    BreakerTrip {
        /// The tripped shard.
        shard: usize,
        /// Lifetime trip count for the shard, including this one.
        trips: u64,
    },
    /// A load report was taken: the service's instantaneous diagnosis of
    /// per-shard traffic skew.
    LoadReport {
        /// The busiest shard (meaningful only when `skewed` is true).
        hot_shard: usize,
        /// True if the report diagnosed meaningful skew (volume past the
        /// floor and the leader at ≥ 2× the per-shard mean).
        skewed: bool,
        /// The leader's hit share, in permille of the per-shard mean.
        skew_permille: u64,
        /// Shards whose breakers were open when the report was taken.
        open_shards: u32,
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

impl Event {
    /// Stable snake_case name of the variant, used as the JSON `kind`
    /// field and the chrome://tracing event name.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ScanBegin { .. } => "scan_begin",
            Event::ScanEnd { .. } => "scan_end",
            Event::UpdateBegin { .. } => "update_begin",
            Event::UpdateEnd { .. } => "update_end",
            Event::RoundStart { .. } => "round_start",
            Event::RoundEnd { .. } => "round_end",
            Event::HandshakeCopy { .. } => "handshake_copy",
            Event::HandshakeFlip { .. } => "handshake_flip",
            Event::ToggleFlip { .. } => "toggle_flip",
            Event::BorrowDecision { .. } => "borrow_decision",
            Event::RegisterRead => "register_read",
            Event::RegisterWrite => "register_write",
            Event::ScheduleStep { .. } => "schedule_step",
            Event::AbdPhaseStart { .. } => "abd_phase_start",
            Event::AbdRetransmit { .. } => "abd_retransmit",
            Event::AbdQuorumReached { .. } => "abd_quorum_reached",
            Event::AbdQuorumFailed { .. } => "abd_quorum_failed",
            Event::CoalesceLead { .. } => "coalesce_lead",
            Event::CoalesceJoin { .. } => "coalesce_join",
            Event::ServiceOverload { .. } => "service_overload",
            Event::PartialCollect { .. } => "partial_collect",
            Event::PartialFallback { .. } => "partial_fallback",
            Event::BackendError { .. } => "backend_error",
            Event::CoalesceAbdicate { .. } => "coalesce_abdicate",
            Event::RetryExhausted { .. } => "retry_exhausted",
            Event::ShardDegraded { .. } => "shard_degraded",
            Event::ShardShed { .. } => "shard_shed",
            Event::DeadlineExceeded { .. } => "deadline_exceeded",
            Event::SpanBegin { .. } => "span_begin",
            Event::SpanEnd { .. } => "span_end",
            Event::SpanNote { .. } => "span_note",
            Event::SpanFollows { .. } => "span_follows",
            Event::BreakerTrip { .. } => "breaker_trip",
            Event::LoadReport { .. } => "load_report",
            Event::TransportDial { .. } => "transport_dial",
            Event::TransportConnected { .. } => "transport_connected",
            Event::TransportDropped { .. } => "transport_dropped",
            Event::StoreTruncated { .. } => "store_truncated",
            Event::StoreCorrupt { .. } => "store_corrupt",
            Event::StoreCheckpoint { .. } => "store_checkpoint",
            Event::StoreCheckpointFailed { .. } => "store_checkpoint_failed",
            Event::StoreReplayed { .. } => "store_replayed",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::ScanBegin { algo } => write!(f, "scan_begin({algo})"),
            Event::ScanEnd { algo, double_collects, borrowed } => {
                write!(f, "scan_end({algo}, dc={double_collects}, borrowed={borrowed})")
            }
            Event::UpdateBegin { algo } => write!(f, "update_begin({algo})"),
            Event::UpdateEnd { algo, double_collects } => {
                write!(f, "update_end({algo}, dc={double_collects})")
            }
            Event::RoundStart { algo, round } => write!(f, "round_start({algo}, r{round})"),
            Event::RoundEnd { algo, round, outcome } => {
                write!(f, "round_end({algo}, r{round}, {outcome})")
            }
            Event::HandshakeCopy { partner, bit } => {
                write!(f, "handshake_copy(partner=P{partner}, bit={bit})")
            }
            Event::HandshakeFlip { partner, bit } => {
                write!(f, "handshake_flip(partner=P{partner}, bit={bit})")
            }
            Event::ToggleFlip { word, toggle } => {
                write!(f, "toggle_flip(word={word}, toggle={toggle})")
            }
            Event::BorrowDecision { lender, moved } => {
                write!(f, "borrow_decision(lender=P{lender}, moved={moved})")
            }
            Event::RegisterRead => f.write_str("register_read"),
            Event::RegisterWrite => f.write_str("register_write"),
            Event::ScheduleStep { step, op } => write!(f, "schedule_step(#{step}, {op})"),
            Event::AbdPhaseStart { phase } => write!(f, "abd_phase_start({phase})"),
            Event::AbdRetransmit { phase, attempt, resent } => {
                write!(f, "abd_retransmit({phase}, attempt={attempt}, resent={resent})")
            }
            Event::AbdQuorumReached { phase, acks, elapsed_us } => {
                write!(f, "abd_quorum_reached({phase}, acks={acks}, {elapsed_us}us)")
            }
            Event::AbdQuorumFailed { phase, acks, needed } => {
                write!(f, "abd_quorum_failed({phase}, acks={acks}/{needed})")
            }
            Event::CoalesceLead { generation } => {
                write!(f, "coalesce_lead(gen={generation})")
            }
            Event::CoalesceJoin { generation } => {
                write!(f, "coalesce_join(gen={generation})")
            }
            Event::ServiceOverload { inflight } => {
                write!(f, "service_overload(inflight={inflight})")
            }
            Event::PartialCollect { segments, rounds, fallback } => {
                write!(f, "partial_collect(segments={segments}, rounds={rounds}, fallback={fallback})")
            }
            Event::PartialFallback { segments } => {
                write!(f, "partial_fallback(segments={segments})")
            }
            Event::BackendError { attempt, retryable } => {
                write!(f, "backend_error(attempt={attempt}, retryable={retryable})")
            }
            Event::CoalesceAbdicate { generation } => {
                write!(f, "coalesce_abdicate(gen={generation})")
            }
            Event::RetryExhausted { attempts } => {
                write!(f, "retry_exhausted(attempts={attempts})")
            }
            Event::ShardDegraded { shard, retry_after_us } => {
                write!(f, "shard_degraded(shard={shard}, retry_after={retry_after_us}us)")
            }
            Event::ShardShed { shard, rank, retry_after_us } => {
                write!(f, "shard_shed(shard={shard}, rank={rank}, retry_after={retry_after_us}us)")
            }
            Event::DeadlineExceeded { attempts, budget_us } => {
                write!(f, "deadline_exceeded(attempts={attempts}, budget={budget_us}us)")
            }
            Event::SpanBegin { id, parent, kind } => {
                write!(f, "span_begin(S{id}, parent=S{parent}, {kind})")
            }
            Event::SpanEnd { id, kind, status, elapsed_us } => {
                write!(f, "span_end(S{id}, {kind}, {status}, {elapsed_us}us)")
            }
            Event::SpanNote { id, key, value } => {
                write!(f, "span_note(S{id}, {key}={value})")
            }
            Event::SpanFollows { id, from } => {
                write!(f, "span_follows(S{id} <- S{from})")
            }
            Event::BreakerTrip { shard, trips } => {
                write!(f, "breaker_trip(shard={shard}, trips={trips})")
            }
            Event::LoadReport { hot_shard, skewed, skew_permille, open_shards } => {
                write!(
                    f,
                    "load_report(hot={hot_shard}, skewed={skewed}, skew={skew_permille}‰, \
                     open={open_shards})"
                )
            }
            Event::TransportDial { replica, attempt } => {
                write!(f, "transport_dial(replica=R{replica}, attempt={attempt})")
            }
            Event::TransportConnected { replica, attempt } => {
                write!(f, "transport_connected(replica=R{replica}, attempt={attempt})")
            }
            Event::TransportDropped { replica } => {
                write!(f, "transport_dropped(replica=R{replica})")
            }
            Event::StoreTruncated { replica, bytes } => {
                write!(f, "store_truncated(replica=R{replica}, bytes={bytes})")
            }
            Event::StoreCorrupt { replica, offset, truncated } => {
                write!(
                    f,
                    "store_corrupt(replica=R{replica}, offset={offset}, truncated={truncated})"
                )
            }
            Event::StoreCheckpoint { replica, registers, bytes } => {
                write!(
                    f,
                    "store_checkpoint(replica=R{replica}, registers={registers}, bytes={bytes})"
                )
            }
            Event::StoreCheckpointFailed { replica } => {
                write!(f, "store_checkpoint_failed(replica=R{replica})")
            }
            Event::StoreReplayed { replica, checkpoint_registers, records, elapsed_us } => {
                write!(
                    f,
                    "store_replayed(replica=R{replica}, ckpt={checkpoint_registers}, \
                     records={records}, {elapsed_us}us)"
                )
            }
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
