//! `snapshot-wire`: the real-transport plane of the atomic-snapshot
//! stack — a versioned binary wire protocol, TCP/UDS endpoints, and the
//! replica server behind the `snapshotd` binary.
//!
//! The simulated network in `snapshot-abd` lets the whole stack run in
//! one process; this crate is the seam's other side, carrying the exact
//! same ABD replica conversation (`Query`/`QueryReply`,
//! `Store`/`StoreAck`) over real sockets so `AbdSnapshotCore` and the
//! full `snapshot-service` stack run unchanged against separate replica
//! processes:
//!
//! * [`frame`] — length-prefixed framing with a max-frame-size guard on
//!   both the read and write paths;
//! * [`value`] — the hand-rolled [`WireValue`] encoding;
//! * [`proto`] — the versioned [`Frame`] set: handshake, lane/segment
//!   addressed requests, tagged replies and typed error frames;
//! * [`net`] — [`Endpoint`] parsing plus TCP/UDS streams and listeners;
//! * [`store`] — [`ReplicaStore`], the crash-consistent register store:
//!   CRC-framed state log, atomic checkpoints, explicit fsync and
//!   corruption-recovery policies;
//! * [`server`] — [`ReplicaServer`], the replica protocol loop that
//!   `snapshotd` hosts, including SIGTERM-graceful shutdown;
//! * [`hostile`] — [`HostileProxy`]/[`HostileStream`], seeded byte-level
//!   fault injection (corruption, partial writes, stalls, mid-frame
//!   resets, slow-loris) for nemesis tests against real sockets.
//!
//! The client half — connection management, redial with backoff,
//! request-id demultiplexing — lives in `snapshot_abd::remote`, next to
//! the `Transport` seam it implements.
//!
//! Every decode path in this crate returns a typed error
//! ([`WireError`] / [`FrameIoError`]) rather than panicking; a corrupt
//! or hostile peer can cost at most its own connection.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod frame;
pub mod hostile;
pub mod net;
pub mod proto;
pub mod server;
pub mod store;
pub mod value;

pub use error::WireError;
pub use frame::{
    encode_frame, read_frame, write_frame, FrameIoError, FrameRead, DEFAULT_MAX_FRAME,
};
pub use hostile::{drive_phases, HostileKnobs, HostilePhase, HostileProfile, HostileProxy, HostileStream};
pub use net::{Endpoint, WireListener, WireStream};
pub use proto::{ErrorCode, Frame, StoreEntry, WireTag, PROTOCOL_VERSION};
pub use server::{ReplicaServer, ServerConfig};
pub use store::{
    FsyncPolicy, RecoveryPolicy, RecoverySummary, ReplicaStore, StoreConfig, StoreError,
};
pub use value::{put_bytes, Reader, WireValue};
