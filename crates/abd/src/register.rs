use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use snapshot_core::Deadline;
use snapshot_obs::{AbdPhaseKind, Event};
use snapshot_registers::{ProcessId, Register, TryRegister};
use snapshot_wire::{WireError, WireValue};

use crate::error::{AbdError, AbdPhase};
use crate::message::ErasedValue;
use crate::transport::{Payload, PhaseRequest, ReplyBody, Transport};
use crate::{Network, RegisterId, Tag};

/// Explicit max-by-tag fold over query-phase replies.
///
/// The chosen reply is the lexicographic maximum of `(tag, has_value)`:
/// a strictly higher tag always wins, and at equal tags a reply that
/// carries a value beats one that does not. In well-formed executions a
/// valueless reply only ever carries `Tag::default()` (replicas store tag
/// and value together), but the fold enforces the invariant rather than
/// relying on it: no `None` reply can ever displace a seen value, and the
/// returned tag is always the maximum tag observed.
fn fold_max_tag(best: &mut (Tag, Option<Payload>), tag: Tag, value: Option<Payload>) {
    if (tag, value.is_some()) > (best.0, best.1.is_some()) {
        *best = (tag, value);
    }
}

/// How a register's values cross its transport.
///
/// In-process transports carry values as type-erased `Arc`s (zero
/// serialization); wire transports carry encoded bytes. The codec is
/// fixed at register construction so a byte-only transport is refused up
/// front, not on first use.
enum Codec<V> {
    /// Values travel as `Arc<dyn Any>` (simulated network).
    Erased,
    /// Values travel as their [`WireValue`] encoding. Plain function
    /// pointers (not boxed closures) so the codec stays `Copy`-cheap and
    /// capture-free.
    Wire {
        enc: fn(&V) -> Vec<u8>,
        dec: fn(&[u8]) -> Result<V, WireError>,
    },
}

impl<V: Clone + Send + Sync + 'static> Codec<V> {
    fn encode(&self, value: V) -> Payload {
        match self {
            Codec::Erased => Payload::Erased(Arc::new(value) as ErasedValue),
            Codec::Wire { enc, .. } => Payload::Bytes(Arc::from(enc(&value).into_boxed_slice())),
        }
    }

    fn decode(&self, register: RegisterId, payload: &Payload) -> Result<V, AbdError> {
        match (self, payload) {
            (Codec::Erased, Payload::Erased(v)) => v
                .downcast_ref::<V>()
                .cloned()
                .ok_or(AbdError::ValueTypeMismatch { register }),
            (Codec::Wire { dec, .. }, Payload::Bytes(b)) => dec(b).map_err(|e| {
                AbdError::DecodeFailed {
                    register,
                    detail: e.to_string(),
                }
            }),
            // A payload of the other shape means two handles address one
            // register through different codecs — the same embedding bug
            // ValueTypeMismatch names.
            _ => Err(AbdError::ValueTypeMismatch { register }),
        }
    }
}

impl<V> fmt::Debug for Codec<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Codec::Erased => "Codec::Erased",
            Codec::Wire { .. } => "Codec::Wire",
        })
    }
}

/// An atomic multi-writer register emulated with the ABD protocol over
/// the replicas of a [`Transport`] — the simulated in-process
/// [`Network`], or a real cluster of `snapshotd` processes via
/// [`RemoteTransport`](crate::RemoteTransport).
///
/// * **write(v)** — phase 1: query all replicas, wait for a majority of
///   `(tag)` replies, pick `seq` one above the maximum; phase 2: store
///   `(seq, pid, v)` everywhere, wait for a majority of acks.
/// * **read()** — phase 1: query, majority, take the maximum `(tag, v)`;
///   phase 2: *write back* that maximum to a majority before returning
///   (so any read starting after this one completes sees a tag at least
///   as large: no new/old inversion) — skipped when the whole query
///   quorum already answered with that one tag, because then the maximum
///   *is* on a majority. [`read_many`](Self::read_many) reads a batch of
///   registers in the same two rounds.
///
/// Any two majorities intersect, which is the whole proof sketch: a read's
/// query majority intersects every completed write's store majority, so
/// the read sees the write's tag (or a larger one).
///
/// # Fault tolerance
///
/// Each quorum phase is a retry loop keyed by a fresh request id: the
/// client broadcasts, then retransmits to every replica that has not yet
/// answered under capped exponential backoff with jitter
/// ([`RetryPolicy`](crate::RetryPolicy)), so dropped, duplicated,
/// reordered and delayed messages are masked. Replicas dedupe by request
/// id (a retried `Store` is applied at most once, then re-acked), and the
/// client counts *distinct* replicas toward the quorum, so duplicated
/// replies are harmless — the protocol is duplication-safe by
/// construction. None of this is transport-specific: over real sockets
/// the same loop masks lost connections (the transport drops frames while
/// redialing, and the retransmission path re-sends them).
///
/// # Liveness
///
/// [`AbdRegister::try_read`]/[`AbdRegister::try_write`] block while no
/// majority responds and return [`AbdError::QuorumUnavailable`] once the
/// configured [`op_timeout`](crate::NetworkConfig::op_timeout) elapses —
/// the paper's resilience claim is *exactly* "as long as a majority of
/// the system remains connected". The infallible [`Register`] interface
/// panics on the same condition (it has no error channel), so snapshot
/// constructions built on it should be run within the liveness boundary.
///
/// See the [crate docs](crate) for an example.
pub struct AbdRegister<V> {
    transport: Arc<dyn Transport>,
    id: RegisterId,
    init: V,
    codec: Codec<V>,
}

impl<V: Clone + Send + Sync + 'static> AbdRegister<V> {
    /// Creates a register with initial value `init` on `network`.
    pub fn new(network: Arc<Network>, init: V) -> Self {
        Self::with_transport(network, init)
    }

    /// Creates a register with initial value `init` on any in-process
    /// transport, carrying values type-erased (no serialization).
    ///
    /// # Panics
    ///
    /// Panics if the transport only carries encoded bytes
    /// ([`Transport::requires_bytes`]) — construct with
    /// [`with_wire_codec`](Self::with_wire_codec) instead.
    pub fn with_transport(transport: Arc<dyn Transport>, init: V) -> Self {
        assert!(
            !transport.requires_bytes(),
            "transport `{}` carries only encoded bytes; construct the register \
             with `with_wire_codec`",
            transport.kind()
        );
        let id = transport.allocate_register();
        AbdRegister {
            transport,
            id,
            init,
            codec: Codec::Erased,
        }
    }

    /// The register's id within its transport (diagnostics, and the wire
    /// address replicas key their stores by).
    pub fn id(&self) -> RegisterId {
        self.id
    }

    /// The transport this register's quorum phases run over.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Reads the register, returning a typed error instead of panicking
    /// when no majority of replicas answers within the configured timeout.
    pub fn try_read(&self, reader: ProcessId) -> Result<V, AbdError> {
        self.try_read_by(reader, Deadline::none())
    }

    /// Like [`try_read`](Self::try_read), with each quorum phase's wait
    /// additionally capped at `deadline`: a read that cannot assemble its
    /// majority before the caller's budget runs out fails fast with
    /// [`AbdError::QuorumUnavailable`] instead of waiting out the full
    /// [`op_timeout`](crate::NetworkConfig::op_timeout).
    pub fn try_read_by(&self, reader: ProcessId, deadline: Deadline) -> Result<V, AbdError> {
        let mut values = Self::read_many(&[self], reader, deadline)?;
        Ok(values.pop().expect("one value per register read"))
    }

    /// Reads a batch of registers of one transport in one query round and
    /// at most one store round, returning their values in order — each
    /// register's read is the ABD read (it linearizes on its own; the
    /// batch as a whole is a collect, not a snapshot).
    ///
    /// The store round writes back, in one request, exactly the registers
    /// whose query quorum disagreed on the tag; a register all of whose
    /// `quorum()` replies carried one tag already has that maximum on a
    /// majority, and when every register is so the round is skipped.
    ///
    /// # Panics
    ///
    /// Panics if the registers do not share one transport.
    pub fn read_many(
        registers: &[&AbdRegister<V>],
        reader: ProcessId,
        deadline: Deadline,
    ) -> Result<Vec<V>, AbdError> {
        let Some(first) = registers.first() else {
            return Ok(Vec::new());
        };
        let transport = &*first.transport;
        assert!(
            registers
                .iter()
                .all(|r| Arc::ptr_eq(&r.transport, &first.transport)),
            "a batched read runs over one transport"
        );
        let ids: Vec<RegisterId> = registers.iter().map(|r| r.id).collect();
        let queried = query_many(transport, reader, deadline, &ids)?;
        // Write-back before returning: later reads must not see an older
        // maximum. Payloads are forwarded as received — no decode /
        // re-encode round trip.
        let write_back: Vec<(RegisterId, Tag, Payload)> = ids
            .iter()
            .zip(&queried)
            .filter(|(_, q)| q.disagreed)
            .filter_map(|(id, q)| Some((*id, q.best.0, q.best.1.clone()?)))
            .collect();
        if !write_back.is_empty() {
            store_many(transport, reader, deadline, &write_back)?;
        }
        registers
            .iter()
            .zip(&queried)
            .map(|(register, q)| match &q.best.1 {
                Some(payload) => register.codec.decode(register.id, payload),
                None => Ok(register.init.clone()),
            })
            .collect()
    }

    /// Writes the register, returning a typed error instead of panicking
    /// when no majority of replicas answers within the configured timeout.
    ///
    /// On `Err(QuorumUnavailable)` the write is *indeterminate*: the value
    /// may have reached some replicas and may yet become visible (exactly
    /// like a crashed writer in the paper's model).
    pub fn try_write(&self, writer: ProcessId, value: V) -> Result<(), AbdError> {
        self.try_write_by(writer, value, Deadline::none())
    }

    /// Like [`try_write`](Self::try_write), with each quorum phase's wait
    /// additionally capped at `deadline`. A write cut off by the deadline
    /// is *indeterminate* exactly like one that lost its quorum.
    pub fn try_write_by(
        &self,
        writer: ProcessId,
        value: V,
        deadline: Deadline,
    ) -> Result<(), AbdError> {
        let transport = &*self.transport;
        let queried = query_many(transport, writer, deadline, &[self.id])?;
        let tag = Tag {
            seq: queried[0].best.0.seq + 1,
            writer: writer.get(),
        };
        store_many(
            transport,
            writer,
            deadline,
            &[(self.id, tag, self.codec.encode(value))],
        )
    }
}

impl<V: WireValue + Clone + Send + Sync + 'static> AbdRegister<V> {
    /// Creates a register at the explicit wire address `id`, carrying
    /// values as their [`WireValue`] encoding — required for byte-only
    /// transports ([`RemoteTransport`](crate::RemoteTransport)), and
    /// usable over the simulated network too (the bytes round-trip
    /// through the fault-injection plane untouched, which is how the
    /// codec path is differentially tested).
    ///
    /// The address is explicit, not allocated, because every client
    /// process of one cluster must agree on it: `snapshotd` replicas key
    /// their stores by `(lane, segment)` ([`RegisterId::from_lane_segment`]).
    pub fn with_wire_codec(transport: Arc<dyn Transport>, id: RegisterId, init: V) -> Self {
        AbdRegister {
            transport,
            id,
            init,
            codec: Codec::Wire {
                enc: |v| v.encode_to_bytes(),
                dec: V::decode_bytes,
            },
        }
    }
}

impl<V: Clone + Send + Sync + 'static> Register<V> for AbdRegister<V> {
    fn read(&self, reader: ProcessId) -> V {
        self.try_read(reader)
            .unwrap_or_else(|e| panic!("ABD register {:?}: read failed: {e}", self.id))
    }

    fn write(&self, writer: ProcessId, value: V) {
        self.try_write(writer, value)
            .unwrap_or_else(|e| panic!("ABD register {:?}: write failed: {e}", self.id))
    }
}

impl<V: Clone + Send + Sync + 'static> TryRegister<V> for AbdRegister<V> {
    type Error = AbdError;

    fn try_read(&self, reader: ProcessId) -> Result<V, AbdError> {
        AbdRegister::try_read(self, reader)
    }

    fn try_write(&self, writer: ProcessId, value: V) -> Result<(), AbdError> {
        AbdRegister::try_write(self, writer, value)
    }
}

impl<V> fmt::Debug for AbdRegister<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AbdRegister")
            .field("id", &self.id)
            .field("transport", &self.transport.kind())
            .field("codec", &self.codec)
            .finish()
    }
}

/// What the query phase concluded about one register.
#[derive(Clone, Default)]
struct Queried {
    /// The maximum `(tag, value)` over the quorum's replies (value `None`
    /// = still the initial value).
    best: (Tag, Option<Payload>),
    /// The tag of the first accepted reply.
    first: Option<Tag>,
    /// Whether any accepted reply carried a tag other than `first`. When
    /// none did, `best` is already stored on a majority: every replica of
    /// the quorum holds it (or something newer) and never goes back, so
    /// any later query quorum intersects them and sees at least `best` —
    /// the write-back would add nothing.
    disagreed: bool,
}

impl Queried {
    fn fold(&mut self, tag: Tag, value: Option<Payload>) {
        match self.first {
            None => self.first = Some(tag),
            Some(first) => self.disagreed |= first != tag,
        }
        fold_max_tag(&mut self.best, tag, value);
    }
}

/// How a quorum phase ended, short of an error.
enum PhaseEnd {
    /// A majority accepted.
    Quorum,
    /// Replicas refused the batch (or their reply to it) as over the
    /// frame cap and the rest cannot, or within the first backoff did
    /// not, form a majority (only reported for a batch of more than one
    /// register): halve it and run the halves as separate phases.
    TooLarge,
}

/// The query phase over a batch of registers: one round asking every
/// replica for all of them, awaiting a majority, folding each register's
/// replies into its [`Queried`]. An oversize batch degrades into halves.
fn query_many(
    transport: &dyn Transport,
    pid: ProcessId,
    deadline: Deadline,
    registers: &[RegisterId],
) -> Result<Vec<Queried>, AbdError> {
    let mut out = vec![Queried::default(); registers.len()];
    let end = run_quorum_phase(
        transport,
        pid,
        AbdPhase::Query,
        deadline,
        PhaseRequest::Query {
            registers: registers.to_vec(),
        },
        |body| match body {
            ReplyBody::Values(values) if values.len() == out.len() => {
                for (queried, (tag, value)) in out.iter_mut().zip(values) {
                    queried.fold(tag, value);
                }
                true
            }
            _ => false,
        },
    )?;
    if let PhaseEnd::TooLarge = end {
        let (front, back) = registers.split_at(registers.len() / 2);
        out = query_many(transport, pid, deadline, front)?;
        out.extend(query_many(transport, pid, deadline, back)?);
    }
    Ok(out)
}

/// The store phase over a batch of registers: one round storing every
/// `(tag, value)` everywhere, awaiting a majority of acks. An oversize
/// batch degrades into halves.
fn store_many(
    transport: &dyn Transport,
    pid: ProcessId,
    deadline: Deadline,
    entries: &[(RegisterId, Tag, Payload)],
) -> Result<(), AbdError> {
    let end = run_quorum_phase(
        transport,
        pid,
        AbdPhase::Store,
        deadline,
        PhaseRequest::Store {
            entries: entries.to_vec(),
        },
        |body| matches!(body, ReplyBody::Ack),
    )?;
    if let PhaseEnd::TooLarge = end {
        let (front, back) = entries.split_at(entries.len() / 2);
        store_many(transport, pid, deadline, front)?;
        store_many(transport, pid, deadline, back)?;
    }
    Ok(())
}

/// One quorum phase: broadcast the request, collect replies from
/// distinct replicas (duplicates discarded) until a majority accepted,
/// retransmitting to silent replicas under capped exponential backoff,
/// and giving up with [`AbdError::QuorumUnavailable`] at the configured
/// operation timeout.
///
/// `on_reply` returns whether the reply was of the expected kind; only
/// accepted replies count toward the quorum (a typed [`ReplyBody::Error`]
/// never does), and the phase returns on the `quorum()`-th. `pid` is the
/// client process running the phase, used to attribute trace events.
/// `caller_deadline` caps the phase's wait below the configured
/// `op_timeout`: whichever bound arrives first ends the phase with
/// [`AbdError::QuorumUnavailable`].
fn run_quorum_phase(
    transport: &dyn Transport,
    pid: ProcessId,
    phase: AbdPhase,
    caller_deadline: Deadline,
    request: PhaseRequest,
    mut on_reply: impl FnMut(ReplyBody) -> bool,
) -> Result<PhaseEnd, AbdError> {
    // Fail fast on a poisoned fleet: no broadcast, no backoff, no
    // timeout wait — retries against a panicked replica thread (or an
    // explicitly poisoned network) can never succeed.
    if transport.poisoned() {
        return Err(AbdError::NetworkPoisoned);
    }
    let id = transport.fresh_request_id();
    let started = Instant::now();
    let deadline = caller_deadline.cap(started + transport.op_timeout());
    let needed = transport.quorum();
    let retry = transport.retry_policy().clone();
    // Replicas done with this request: accepted, or refused it for good.
    let mut acked = vec![false; transport.replicas()];
    let mut acks = 0usize;
    let mut refusals = 0usize;
    let kind = match phase {
        AbdPhase::Query => AbdPhaseKind::Query,
        AbdPhase::Store => AbdPhaseKind::Store,
    };
    // A single register is the smallest request there is: a refusal of
    // it as too large is final, and times out like any other refusal.
    let divisible = request.len() > 1;
    transport
        .trace()
        .emit(pid.get(), Event::AbdPhaseStart { phase: kind });

    let mut quorum = transport.begin_phase(id, request);
    quorum.send_where(&mut |_| true);
    let mut backoff = retry.initial_backoff;
    let mut attempt = 0u32;
    loop {
        let wake = deadline.min(Instant::now() + backoff);
        while let Some(reply) = quorum.recv_deadline(wake) {
            if reply.from >= acked.len() || acked[reply.from] {
                continue;
            }
            if divisible
                && matches!(
                    reply.body,
                    ReplyBody::Error {
                        too_large: true,
                        ..
                    }
                )
            {
                // The same bytes would be refused again: this replica is
                // not retransmitted to. The phase goes on while the others
                // can still form a majority (one replica with a smaller cap
                // or a larger stored value costs nothing); once they cannot
                // — here, or below when they stay silent past the first
                // backoff — the batch is split. Not a failed quorum, so no
                // event: the halves open phases of their own.
                acked[reply.from] = true;
                refusals += 1;
                if acked.len() - refusals < needed {
                    return Ok(PhaseEnd::TooLarge);
                }
                continue;
            }
            let from = reply.from;
            if !on_reply(reply.body) {
                continue;
            }
            acked[from] = true;
            acks += 1;
            if acks >= needed {
                let elapsed = started.elapsed();
                transport.record_quorum_latency(elapsed);
                transport.trace().emit(
                    pid.get(),
                    Event::AbdQuorumReached {
                        phase: kind,
                        acks,
                        elapsed_us: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
                    },
                );
                return Ok(PhaseEnd::Quorum);
            }
        }
        if Instant::now() >= deadline {
            transport.trace().emit(
                pid.get(),
                Event::AbdQuorumFailed {
                    phase: kind,
                    acks,
                    needed,
                },
            );
            return Err(AbdError::QuorumUnavailable {
                phase,
                acks,
                needed,
                elapsed: started.elapsed(),
            });
        }
        // A fleet poisoned mid-phase cannot answer any more: stop
        // retransmitting instead of spinning until the timeout.
        if transport.poisoned() {
            return Err(AbdError::NetworkPoisoned);
        }
        // A majority needs a replica that is silent (down, or its link
        // lossy) while another already refused the batch as too large:
        // smaller batches can succeed now, retransmitting this one may not.
        if refusals > 0 {
            return Ok(PhaseEnd::TooLarge);
        }
        // Messages may have been dropped: retransmit (same request id,
        // so replicas dedupe) to every replica still silent.
        attempt += 1;
        let resent = quorum.send_where(&mut |i| !acked[i]);
        transport.note_retries(resent as u64);
        transport.trace().emit(
            pid.get(),
            Event::AbdRetransmit {
                phase: kind,
                attempt,
                resent,
            },
        );
        backoff = retry.next_backoff(backoff, id, attempt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use crate::{LinkFault, NetworkConfig, RetryPolicy};

    const P0: ProcessId = ProcessId::new(0);
    const P1: ProcessId = ProcessId::new(1);

    fn erase(v: u32) -> Payload {
        Payload::Erased(Arc::new(v) as ErasedValue)
    }

    fn unerase(v: &Payload) -> u32 {
        match v {
            Payload::Erased(v) => *v.downcast_ref::<u32>().unwrap(),
            Payload::Bytes(_) => panic!("expected an erased payload"),
        }
    }

    #[test]
    fn fold_keeps_max_tag_and_prefers_values_at_ties() {
        let t = |seq, writer| Tag { seq, writer };

        // Mixed Some/None replies, in both arrival orders: the None reply
        // (a replica still at the initial value) must never displace a
        // seen value, and the max tag must win.
        let mut best = (Tag::default(), None);
        fold_max_tag(&mut best, Tag::default(), None);
        fold_max_tag(&mut best, t(3, 1), Some(erase(30)));
        fold_max_tag(&mut best, Tag::default(), None);
        fold_max_tag(&mut best, t(5, 0), Some(erase(50)));
        fold_max_tag(&mut best, Tag::default(), None);
        assert_eq!(best.0, t(5, 0));
        assert_eq!(unerase(best.1.as_ref().unwrap()), 50);

        // All-None replies: the (maximum) tag is still tracked.
        let mut best = (Tag::default(), None);
        fold_max_tag(&mut best, Tag::default(), None);
        fold_max_tag(&mut best, Tag::default(), None);
        assert_eq!(best.0, Tag::default());
        assert!(best.1.is_none());

        // Equal tags: a value-carrying reply beats a valueless one,
        // regardless of order.
        let mut best = (Tag::default(), None);
        fold_max_tag(&mut best, t(2, 0), Some(erase(7)));
        fold_max_tag(&mut best, t(2, 0), None);
        assert_eq!(unerase(best.1.as_ref().unwrap()), 7);
        let mut best = (Tag::default(), None);
        fold_max_tag(&mut best, t(2, 0), None);
        fold_max_tag(&mut best, t(2, 0), Some(erase(7)));
        assert_eq!(unerase(best.1.as_ref().unwrap()), 7);

        // A defective higher-tagged None reply cannot clobber the value
        // (the fold keeps the max tag but the invariant "value is the max
        // tagged value seen" is preserved by tag order).
        let mut best = (Tag::default(), None);
        fold_max_tag(&mut best, t(4, 0), Some(erase(9)));
        fold_max_tag(&mut best, t(4, 0), None);
        assert_eq!(best.0, t(4, 0));
        assert_eq!(unerase(best.1.as_ref().unwrap()), 9);
    }

    #[test]
    fn initial_value_before_any_write() {
        let net = Arc::new(Network::new(3));
        let reg = AbdRegister::new(net, 42u32);
        assert_eq!(reg.read(P0), 42);
    }

    #[test]
    fn write_then_read_round_trips() {
        let net = Arc::new(Network::new(3));
        let reg = AbdRegister::new(net, 0u32);
        reg.write(P0, 5);
        assert_eq!(reg.read(P1), 5);
        reg.write(P1, 6);
        assert_eq!(reg.read(P0), 6);
    }

    #[test]
    fn wire_codec_round_trips_over_the_simulated_network() {
        // The differential check behind the remote mode: the same codec
        // a RemoteTransport register uses runs over the simulated network
        // (its bytes cross the fault-injection plane opaquely), so every
        // sim soak also exercises the wire encoding.
        let net: Arc<Network> = Arc::new(Network::new(3));
        let reg: AbdRegister<(u64, String)> = AbdRegister::with_wire_codec(
            Arc::clone(&net) as Arc<dyn Transport>,
            RegisterId::from_lane_segment(2, 7),
            (0u64, String::new()),
        );
        assert_eq!(reg.id().lane_segment(), (2, 7));
        assert_eq!(reg.read(P0), (0, String::new()));
        reg.write(P0, (4, String::from("wire")));
        assert_eq!(reg.read(P1), (4, String::from("wire")));
    }

    #[test]
    fn survives_minority_crash() {
        let net = Arc::new(Network::new(5));
        let reg = AbdRegister::new(Arc::clone(&net), 0u32);
        reg.write(P0, 1);
        net.crash(0);
        net.crash(3);
        reg.write(P1, 2);
        assert_eq!(reg.read(P0), 2);
    }

    #[test]
    fn state_written_during_crash_visible_after_restart() {
        let net = Arc::new(Network::new(3));
        let reg = AbdRegister::new(Arc::clone(&net), 0u32);
        net.crash(1);
        reg.write(P0, 9);
        net.restart(1);
        net.crash(0); // now a different minority is down
        assert_eq!(reg.read(P1), 9, "intersecting majorities carry the value");
    }

    #[test]
    fn registers_are_independent() {
        let net = Arc::new(Network::new(3));
        let a = AbdRegister::new(Arc::clone(&net), 0u32);
        let b = AbdRegister::new(Arc::clone(&net), 0u32);
        a.write(P0, 1);
        b.write(P0, 2);
        assert_eq!(a.read(P1), 1);
        assert_eq!(b.read(P1), 2);
    }

    #[test]
    fn majority_partition_returns_typed_error_then_recovers() {
        let net = Arc::new(Network::with_config(
            NetworkConfig::new(3)
                .with_op_timeout(Duration::from_millis(120))
                .with_retry(RetryPolicy {
                    initial_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(10),
                    multiplier: 2,
                    jitter: 0.5,
                }),
        ));
        let reg = AbdRegister::new(Arc::clone(&net), 0u32);
        reg.write(P0, 3);

        net.partition(&[0, 1]); // majority gone
        match reg.try_read(P1) {
            Err(AbdError::QuorumUnavailable {
                phase: AbdPhase::Query,
                acks,
                needed,
                elapsed,
            }) => {
                assert!(acks < needed, "{acks} acks should not reach quorum {needed}");
                assert!(elapsed >= Duration::from_millis(120));
            }
            other => panic!("expected QuorumUnavailable, got {other:?}"),
        }
        assert!(
            reg.try_write(P0, 4).is_err(),
            "writes starve without a majority too"
        );

        net.heal();
        // The indeterminate write may or may not have landed; either way
        // the register must answer again and stay well-formed.
        let v = reg.try_read(P1).expect("healed majority answers");
        assert!(v == 3 || v == 4, "read {v}");
        assert!(net.stats().retries > 0, "starved phases must have retried");
    }

    #[test]
    fn caller_deadline_caps_the_quorum_wait() {
        let net = Arc::new(Network::with_config(
            NetworkConfig::new(3).with_op_timeout(Duration::from_secs(5)),
        ));
        let reg = AbdRegister::new(Arc::clone(&net), 0u32);
        net.partition(&[0, 1]); // majority gone
        let started = Instant::now();
        let err = reg
            .try_read_by(P1, Deadline::after(Duration::from_millis(20)))
            .unwrap_err();
        assert!(matches!(err, AbdError::QuorumUnavailable { .. }), "{err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "a 20ms deadline must cut the 5s op_timeout short"
        );
        net.heal();
        assert_eq!(reg.try_read_by(P1, Deadline::none()).unwrap(), 0);
    }

    #[test]
    fn retries_mask_a_very_lossy_link() {
        let plan = crate::FaultPlan::seeded(17).with_default(
            LinkFault::healthy()
                .with_drop(0.4)
                .with_duplicate(0.3)
                .with_reorder(0.3, 3)
                .with_reply_drop(0.2),
        );
        let net = Arc::new(Network::with_config(
            NetworkConfig::new(3)
                .with_faults(plan)
                .with_retry(RetryPolicy {
                    initial_backoff: Duration::from_micros(200),
                    max_backoff: Duration::from_millis(5),
                    multiplier: 2,
                    jitter: 0.5,
                }),
        ));
        let reg = AbdRegister::new(Arc::clone(&net), 0u32);
        for k in 1..=20u32 {
            reg.try_write(P0, k).expect("majority is connected");
            assert_eq!(reg.try_read(P1).unwrap(), k);
        }
        // The batched path under the same plan: dropped replies leave the
        // inbox short of its quorum (the backoff timer picks those up),
        // duplicated ones overshoot it; no collect may hang or misread.
        let others: Vec<AbdRegister<u32>> = (0..3)
            .map(|i| AbdRegister::new(Arc::clone(&net), i))
            .collect();
        let mut refs: Vec<&AbdRegister<u32>> = others.iter().collect();
        refs.push(&reg);
        for k in 21..=30u32 {
            others[k as usize % 3]
                .try_write(P0, k)
                .expect("majority is connected");
            let values = AbdRegister::read_many(&refs, P1, Deadline::none()).unwrap();
            assert_eq!(values[k as usize % 3], k);
            assert_eq!(values[3], 20);
        }
        let stats = net.stats();
        assert!(stats.messages_dropped > 0, "{stats:?}");
        assert!(stats.messages_duplicated > 0, "{stats:?}");
        assert!(stats.retries > 0, "{stats:?}");
        assert!(net.quorum_latency().count() > 0);
    }

    #[test]
    fn traced_operations_emit_phase_events_onto_the_shared_registry() {
        use snapshot_obs::{CountingSink, Registry, Sink, Trace};

        let sink = Arc::new(CountingSink::new());
        let registry = Arc::new(Registry::new());
        let net = Arc::new(Network::with_config(
            NetworkConfig::new(3)
                .with_trace(Trace::new(Arc::clone(&sink) as Arc<dyn Sink>))
                .with_registry(Arc::clone(&registry)),
        ));
        let reg = AbdRegister::new(Arc::clone(&net), 0u32);
        reg.write(P0, 7);
        assert_eq!(reg.read(P1), 7);

        // write = query + store; read = query, plus a write-back store
        // only if its quorum included a replica the write's majority
        // skipped and that still held the old tag.
        let phases = sink.count("abd_phase_start");
        assert!((3..=4).contains(&phases), "{phases} phases");
        assert_eq!(sink.count("abd_quorum_reached"), phases);
        assert_eq!(sink.count("abd_quorum_failed"), 0);

        // The same traffic is visible through both the legacy stats view
        // and the shared registry; the transport kind is a marker gauge
        // (sim and real transports share every other key).
        let sent = registry.counter("abd.messages_sent").get();
        assert_eq!(sent, net.stats().messages_sent);
        assert!(
            sent >= 9,
            "at least three quorum phases x three replicas, got {sent}"
        );
        assert_eq!(
            registry.histogram("abd.quorum_latency_us").snapshot().count(),
            net.quorum_latency().count(),
        );
        assert_eq!(registry.gauge("abd.transport.sim").get(), 1);
    }

    /// The kinds of the phases `ring` saw start, in order (drains it).
    fn phases_started(ring: &snapshot_obs::RingSink) -> Vec<AbdPhaseKind> {
        ring.drain()
            .into_iter()
            .filter_map(|e| match e.event {
                Event::AbdPhaseStart { phase } => Some(phase),
                _ => None,
            })
            .collect()
    }

    fn ring_traced_net(replicas: usize) -> (Arc<Network>, Arc<snapshot_obs::RingSink>) {
        use snapshot_obs::{RingSink, Sink, Trace};
        let ring = Arc::new(RingSink::new(4, 256));
        let net = Arc::new(Network::with_config(
            NetworkConfig::new(replicas).with_trace(Trace::new(Arc::clone(&ring) as Arc<dyn Sink>)),
        ));
        (net, ring)
    }

    #[test]
    fn a_unanimous_read_is_one_round_and_sends_no_store() {
        let (net, ring) = ring_traced_net(3);
        let reg = AbdRegister::new(Arc::clone(&net), 0u32);
        // The write's store sits in all three replica inboxes before the
        // write returns, and a healthy link is FIFO: whichever two
        // replicas answer the read first, both already hold the new tag.
        reg.write(P0, 7);
        let _ = ring.drain();
        let sent = net.messages_sent();
        assert_eq!(reg.read(P1), 7);
        assert_eq!(
            net.messages_sent() - sent,
            3,
            "one query broadcast, nothing else"
        );
        assert_eq!(phases_started(&ring), vec![AbdPhaseKind::Query]);
    }

    #[test]
    fn a_disagreeing_quorum_writes_back_before_returning_so_no_later_read_inverts() {
        let (net, ring) = ring_traced_net(3);
        let reg = AbdRegister::new(Arc::clone(&net), 0u32);
        reg.write(P0, 1); // "old", on a majority

        // Leave "new" on replica 0 alone: the other two never get the
        // store, so its phase starves (an indeterminate write).
        let new_tag = Tag { seq: 9, writer: 0 };
        net.partition_inbound(&[1, 2]);
        let starved = store_many(
            &*net,
            P0,
            Deadline::after(Duration::from_millis(30)),
            &[(reg.id(), new_tag, erase(2))],
        );
        assert!(
            matches!(starved, Err(AbdError::QuorumUnavailable { .. })),
            "{starved:?}"
        );
        net.heal();

        // Reader A's quorum is {0, 1}: it sees {new, old}, and must store
        // new on a majority before returning it.
        net.partition(&[2]);
        let _ = ring.drain();
        assert_eq!(reg.read(P1), 2);
        assert_eq!(
            phases_started(&ring),
            vec![AbdPhaseKind::Query, AbdPhaseKind::Store]
        );
        net.heal();

        // Reader B is confined to the two replicas the write never
        // reached: A's write-back put new on one of them, so B must
        // return new.
        net.partition(&[0]);
        assert_eq!(reg.read(ProcessId::new(2)), 2, "new/old inversion");
    }

    #[test]
    fn read_many_is_one_query_round_and_one_store_round_for_the_disagreeing_only() {
        let (net, ring) = ring_traced_net(3);
        let regs: Vec<AbdRegister<u32>> = (0..4)
            .map(|i| AbdRegister::new(Arc::clone(&net), i))
            .collect();
        net.partition(&[2]);
        for (i, reg) in regs.iter().enumerate().skip(1) {
            reg.write(P0, 10 + i as u32); // regs[0] stays at its initial value
        }
        // Replica 2 missed every write; a reader confined to {1, 2} sees
        // disagreement on the three written registers and none on regs[0].
        net.heal();
        net.partition(&[0]);
        let refs: Vec<&AbdRegister<u32>> = regs.iter().collect();
        let _ = ring.drain();
        let sent = net.messages_sent();
        let values = AbdRegister::read_many(&refs, P1, Deadline::none()).unwrap();
        assert_eq!(values, vec![0, 11, 12, 13]);
        assert_eq!(
            phases_started(&ring),
            vec![AbdPhaseKind::Query, AbdPhaseKind::Store]
        );
        assert_eq!(
            net.messages_sent() - sent,
            6,
            "two broadcasts for four registers"
        );
        // The write-back made the quorum unanimous: the next collect is one round.
        let values = AbdRegister::read_many(&refs, P1, Deadline::none()).unwrap();
        assert_eq!(values, vec![0, 11, 12, 13]);
        assert_eq!(phases_started(&ring), vec![AbdPhaseKind::Query]);
        assert!(AbdRegister::<u32>::read_many(&[], P1, Deadline::none())
            .unwrap()
            .is_empty());
    }

    /// What replica `.0` replies to a delivery of `.1` (`None` = silence).
    type Script = dyn Fn(usize, &PhaseRequest) -> Option<ReplyBody> + Send + Sync;

    /// A transport whose replicas answer synchronously from a script.
    /// Replies are pushed in replica order.
    struct Scripted {
        replicas: usize,
        answer: Box<Script>,
        /// Every request a phase was begun for.
        begun: std::sync::Mutex<Vec<PhaseRequest>>,
        registry: Arc<snapshot_obs::Registry>,
        /// Counts the events of `trace` by name.
        events: Arc<snapshot_obs::CountingSink>,
        trace: snapshot_obs::Trace,
        retry: RetryPolicy,
        next: std::sync::atomic::AtomicU64,
    }

    impl Scripted {
        fn new(
            replicas: usize,
            answer: impl Fn(usize, &PhaseRequest) -> Option<ReplyBody> + Send + Sync + 'static,
        ) -> Self {
            let events = Arc::new(snapshot_obs::CountingSink::new());
            Scripted {
                replicas,
                answer: Box::new(answer),
                begun: Default::default(),
                registry: Default::default(),
                trace: snapshot_obs::Trace::new(Arc::clone(&events) as Arc<dyn snapshot_obs::Sink>),
                events,
                retry: RetryPolicy::default(),
                next: Default::default(),
            }
        }
    }

    struct ScriptedPhase<'a> {
        transport: &'a Scripted,
        request: PhaseRequest,
        inbox: crate::transport::ReplyInbox,
    }

    impl crate::Phase for ScriptedPhase<'_> {
        fn send_where(&mut self, include: &mut dyn FnMut(usize) -> bool) -> usize {
            let addressed: Vec<usize> = (0..self.transport.replicas)
                .filter(|&i| include(i))
                .collect();
            for &from in &addressed {
                if let Some(body) = (self.transport.answer)(from, &self.request) {
                    self.inbox.push(crate::Reply { from, body });
                }
            }
            addressed.len()
        }

        fn recv_deadline(&mut self, deadline: Instant) -> Option<crate::Reply> {
            self.inbox.recv_deadline(deadline)
        }
    }

    impl Transport for Scripted {
        fn replicas(&self) -> usize {
            self.replicas
        }
        fn kind(&self) -> &'static str {
            "scripted"
        }
        fn op_timeout(&self) -> Duration {
            Duration::from_millis(50)
        }
        fn retry_policy(&self) -> &RetryPolicy {
            &self.retry
        }
        fn registry(&self) -> &Arc<snapshot_obs::Registry> {
            &self.registry
        }
        fn trace(&self) -> &snapshot_obs::Trace {
            &self.trace
        }
        fn allocate_register(&self) -> RegisterId {
            RegisterId(self.fresh_request_id().0)
        }
        fn fresh_request_id(&self) -> crate::RequestId {
            crate::RequestId(self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
        }
        fn begin_phase(
            &self,
            _id: crate::RequestId,
            request: PhaseRequest,
        ) -> Box<dyn crate::Phase + '_> {
            self.begun.lock().unwrap().push(request.clone());
            Box::new(ScriptedPhase {
                transport: self,
                request,
                inbox: crate::transport::ReplyInbox::new(self.quorum()),
            })
        }
        fn note_retries(&self, _n: u64) {}
        fn record_quorum_latency(&self, _elapsed: Duration) {}
    }

    fn refused(too_large: bool) -> ReplyBody {
        ReplyBody::Error {
            too_large,
            detail: String::from("scripted refusal"),
        }
    }

    #[test]
    fn an_error_among_the_first_two_replies_leaves_the_phase_to_complete_on_the_third() {
        // Replica 0 refuses, so the quorum-th push wakes the client one
        // accepted reply short; the third reply must still end the phase.
        let transport = Arc::new(Scripted::new(3, |from, request| match (from, request) {
            (0, _) => Some(refused(false)),
            (_, PhaseRequest::Query { registers }) => Some(ReplyBody::Values(
                registers
                    .iter()
                    .map(|_| (Tag { seq: 4, writer: 1 }, Some(erase(44))))
                    .collect(),
            )),
            (_, PhaseRequest::Store { .. }) => Some(ReplyBody::Ack),
        }));
        let reg = AbdRegister::with_transport(Arc::clone(&transport) as Arc<dyn Transport>, 0u32);
        let started = Instant::now();
        assert_eq!(reg.try_read(P0).unwrap(), 44);
        assert!(
            started.elapsed() < Duration::from_millis(40),
            "no backoff, no timeout"
        );
        assert_eq!(
            transport.begun.lock().unwrap().len(),
            1,
            "unanimous: no store round"
        );
        // An indivisible request refused as too large is refused for
        // good: with two such replicas there is no quorum.
        let transport = Arc::new(Scripted::new(3, |from, _| {
            (from > 0).then(|| refused(true))
        }));
        let reg = AbdRegister::with_transport(Arc::clone(&transport) as Arc<dyn Transport>, 0u32);
        assert!(matches!(
            reg.try_read(P0),
            Err(AbdError::QuorumUnavailable { acks: 0, .. })
        ));
    }

    /// Reads five registers in one `read_many` over three scripted
    /// replicas, where replica `i` refuses any batch of more than `caps[i]`
    /// registers as too large (`None` = the replica is silent), and
    /// returns the sizes of the phases that were begun.
    fn batch_sizes_under_caps(caps: [Option<usize>; 3]) -> (Vec<usize>, Arc<Scripted>) {
        let transport = Arc::new(Scripted::new(3, move |from, request| {
            let cap = caps[from]?;
            Some(match request {
                _ if request.len() > cap => refused(true),
                PhaseRequest::Query { registers } => ReplyBody::Values(
                    registers
                        .iter()
                        .map(|r| (Tag { seq: 1, writer: 0 }, Some(erase(100 + r.0 as u32))))
                        .collect(),
                ),
                PhaseRequest::Store { .. } => ReplyBody::Ack,
            })
        }));
        let regs: Vec<AbdRegister<u32>> = (0..5)
            .map(|_| AbdRegister::with_transport(Arc::clone(&transport) as Arc<dyn Transport>, 0))
            .collect();
        let refs: Vec<&AbdRegister<u32>> = regs.iter().collect();
        let values = AbdRegister::read_many(&refs, P0, Deadline::none()).unwrap();
        let ids: Vec<u32> = regs.iter().map(|r| r.id().0 as u32).collect();
        assert_eq!(
            values,
            ids.iter().map(|id| 100 + id).collect::<Vec<_>>(),
            "order kept"
        );
        let sizes = transport
            .begun
            .lock()
            .unwrap()
            .iter()
            .map(PhaseRequest::len)
            .collect();
        (sizes, transport)
    }

    #[test]
    fn a_batch_refused_as_too_large_is_halved_down_to_what_fits() {
        // Every replica takes at most two registers per request.
        let (sizes, transport) = batch_sizes_under_caps([Some(2); 3]);
        // 5 → (2, 3 → (1, 2)): refused batches, then the pieces that fit.
        assert_eq!(sizes, vec![5, 2, 3, 1, 2]);
        // A split is not a failed quorum: the refused batches end with no
        // event, the pieces that fit each reach theirs.
        assert_eq!(transport.events.count("abd_phase_start"), 5);
        assert_eq!(transport.events.count("abd_quorum_reached"), 3);
        assert_eq!(transport.events.count("abd_quorum_failed"), 0);
    }

    #[test]
    fn one_refusing_replica_does_not_split_a_batch_the_others_can_serve() {
        // Replica 0 has the small cap; 1 and 2 are a majority without it.
        let started = Instant::now();
        let (sizes, transport) = batch_sizes_under_caps([Some(2), Some(8), Some(8)]);
        assert_eq!(sizes, vec![5], "one query round, no split, no store");
        assert!(started.elapsed() < Duration::from_millis(40), "no timeout");
        assert_eq!(transport.events.count("abd_quorum_reached"), 1);
        assert_eq!(transport.events.count("abd_retransmit"), 0);
    }

    #[test]
    fn a_refusal_plus_a_silent_replica_splits_after_the_first_backoff() {
        // Replica 2 is down: the majority {0, 1} needs the refusing
        // replica, so the batch must shrink to what replica 0 takes — after
        // one backoff of waiting for replica 2, not at the 50 ms timeout.
        let started = Instant::now();
        let (sizes, transport) = batch_sizes_under_caps([Some(2), Some(8), None]);
        assert_eq!(sizes, vec![5, 2, 3, 1, 2]);
        assert!(started.elapsed() < Duration::from_millis(40), "no timeout");
        assert_eq!(transport.events.count("abd_quorum_failed"), 0);
    }

    #[test]
    fn concurrent_readers_and_writers_no_tearing() {
        let net = Arc::new(Network::with_config(NetworkConfig::new(3).with_jitter(7)));
        let reg = Arc::new(AbdRegister::new(net, (0u64, 0u64)));
        std::thread::scope(|s| {
            for w in 0..2usize {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    for k in 1..=50u64 {
                        reg.write(ProcessId::new(w), (k, k * 3));
                    }
                });
            }
            for r in 2..4usize {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    for _ in 0..50 {
                        let (a, b) = reg.read(ProcessId::new(r));
                        assert_eq!(b, a * 3);
                    }
                });
            }
        });
    }
}
