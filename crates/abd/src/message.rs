use std::any::Any;
use std::sync::Arc;

use crate::transport::{PhaseRequest, ReplyInbox};

/// Identifier of one emulated register within a [`Network`].
///
/// [`Network`]: crate::Network
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegisterId(pub(crate) u64);

impl RegisterId {
    /// The id addressing `(lane, segment)` on a wire transport:
    /// `snapshotd` replicas key their stores by this pair, and
    /// `AbdSnapshotCore::remote` names its registers with it so every
    /// client process addressing the same cluster addresses the same
    /// registers (a simulated network instead hands out sequential ids
    /// private to itself).
    pub fn from_lane_segment(lane: u32, segment: u32) -> RegisterId {
        RegisterId(u64::from(lane) << 32 | u64::from(segment))
    }

    /// The `(lane, segment)` pair this id addresses on the wire (an id
    /// allocated by a simulated network decomposes too — sequential ids
    /// land in lane 0).
    pub fn lane_segment(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// Identifier of one client quorum round (a query or store phase).
///
/// Every phase draws a fresh id from its transport's engine state
/// ([`EngineState`](crate::EngineState)) and stamps it on the
/// initial broadcast *and* every retransmission, so replicas can
/// deduplicate retries (`Store` is applied at most once per id) and
/// clients can discard duplicate replies. This is what makes the client's
/// retry loop idempotent under message duplication: a link may deliver a
/// request twice, or a retransmission may race its original, and the
/// observable outcome is the same.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(
    /// The raw id (a wire transport carries it verbatim in its frames).
    pub u64,
);

/// The ABD logical timestamp: `(seq, writer)`, totally ordered.
///
/// Replicas keep the highest-tagged value they have seen per register;
/// writers pick a `seq` one above the majority maximum; readers return the
/// majority maximum (after writing it back).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag {
    /// Logical sequence number.
    pub seq: u64,
    /// Writer process id (tie-breaker).
    pub writer: usize,
}

/// Type-erased register value as stored by replicas (registers of any
/// `Clone + Send + Sync` value type share one replica fleet).
pub type ErasedValue = Arc<dyn Any + Send + Sync>;

/// A client-to-replica message on the simulated network.
///
/// `Clone` so the fault-injection layer can duplicate deliveries and the
/// client can retransmit: both paths reuse the same reply inbox and
/// request id, and replicas answer every delivery (re-acking is how a
/// client whose *reply* was dropped ever completes). The phase request is
/// shared, not copied, between the replicas it is broadcast to.
#[derive(Clone, Debug)]
pub(crate) enum Request {
    /// One delivery of a quorum-phase request; the replica pushes its
    /// [`Reply`](crate::Reply) onto `reply`.
    Phase {
        id: RequestId,
        request: Arc<PhaseRequest>,
        reply: Arc<ReplyInbox>,
    },
    /// Orderly shutdown of the replica thread.
    Shutdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_order_by_seq_then_writer() {
        let a = Tag { seq: 1, writer: 9 };
        let b = Tag { seq: 2, writer: 0 };
        let c = Tag { seq: 2, writer: 1 };
        assert!(a < b && b < c);
        assert_eq!(Tag::default(), Tag { seq: 0, writer: 0 });
    }

    #[test]
    fn requests_are_cloneable_for_duplication_and_retransmit() {
        let req = Request::Phase {
            id: RequestId(7),
            request: Arc::new(PhaseRequest::Query {
                registers: vec![RegisterId(0)],
            }),
            reply: Arc::new(ReplyInbox::new(2)),
        };
        match (req.clone(), req) {
            (
                Request::Phase {
                    id: a,
                    request: ra,
                    reply: ia,
                },
                Request::Phase {
                    id: b,
                    request: rb,
                    reply: ib,
                },
            ) => {
                assert_eq!(a, b);
                assert!(Arc::ptr_eq(&ra, &rb) && Arc::ptr_eq(&ia, &ib));
            }
            _ => unreachable!(),
        }
    }
}
