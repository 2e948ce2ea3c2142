//! The versioned protocol: every message that crosses a replica
//! connection, with hand-rolled canonical encode/decode.
//!
//! # Wire format
//!
//! Every frame body begins with a one-byte kind discriminant; all
//! integers are little-endian (see DESIGN.md §14 for the field table).
//!
//! | kind | frame        | body after the kind byte                                  |
//! |------|--------------|-----------------------------------------------------------|
//! | 1    | `Hello`      | magic `[u8;4]`, version `u16`, client `u32`               |
//! | 2    | `HelloAck`   | magic `[u8;4]`, version `u16`, replica `u32`              |
//! | 3    | `Query`      | id `u64`, count `u32`, count × (lane `u32`, segment `u32`) |
//! | 4    | `Store`      | id `u64`, count `u32`, count × (lane `u32`, segment `u32`, tag, value `bytes`) |
//! | 5    | `QueryReply` | id `u64`, count `u32`, count × (tag, present `u8`, \[value `bytes`\]) |
//! | 6    | `StoreAck`   | id `u64`                                                  |
//! | 7    | `Error`      | id `u64`, code `u16`, detail `string`                     |
//!
//! where `tag` is seq `u64` + writer `u32`, and `bytes`/`string` are
//! `u32`-length-prefixed. Registers are addressed as `(lane, segment)`
//! pairs — the snapshot construction's own coordinates — so a replica
//! dump is legible without a register-id allocation table. A request
//! names a batch of registers (a single-register operation is a batch of
//! one) and a `QueryReply` answers positionally; every `count` is checked
//! against the bytes that remain before anything is allocated for it.

use std::fmt;

use crate::error::WireError;
use crate::value::{put_bytes, Reader};

/// The four magic bytes opening every handshake frame.
pub const MAGIC: [u8; 4] = *b"SNAP";

/// The protocol version this build speaks.
///
/// v2 added the per-frame body CRC-32 to the framing layer; a v1 peer
/// desyncs at the first frame and is dropped before the handshake can
/// even report the mismatch, which is the correct outcome for an
/// incompatible framing. v3 made `Query`/`Store`/`QueryReply` carry a
/// batch of registers; a v2 peer is refused at `Hello` with
/// [`ErrorCode::Unsupported`].
pub const PROTOCOL_VERSION: u16 = 3;

/// Fewest bytes one entry of a batched frame can occupy: what a `count`
/// is checked against before a vector is sized by it.
const MIN_QUERY_ENTRY: usize = 8;
const MIN_STORE_ENTRY: usize = 8 + 12 + 4;
const MIN_REPLY_ENTRY: usize = 12 + 1;

const KIND_HELLO: u8 = 1;
const KIND_HELLO_ACK: u8 = 2;
const KIND_QUERY: u8 = 3;
const KIND_STORE: u8 = 4;
const KIND_QUERY_REPLY: u8 = 5;
const KIND_STORE_ACK: u8 = 6;
const KIND_ERROR: u8 = 7;

/// The ABD logical timestamp as it crosses the wire: `(seq, writer)`,
/// compared lexicographically exactly like the in-process `Tag`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WireTag {
    /// Logical sequence number.
    pub seq: u64,
    /// Writer process id (tie-breaker).
    pub writer: u32,
}

impl WireTag {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.writer.to_le_bytes());
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(WireTag {
            seq: r.u64()?,
            writer: r.u32()?,
        })
    }
}

/// One register's `(tag, value)` inside a batched [`Frame::Store`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreEntry {
    /// The register's lane coordinate.
    pub lane: u32,
    /// The register's segment coordinate.
    pub segment: u32,
    /// The ABD timestamp of the value.
    pub tag: WireTag,
    /// The encoded register value.
    pub value: Vec<u8>,
}

/// Reads the `count` opening a batch, refusing one the remaining bytes
/// cannot hold (at `min_entry` bytes apiece) before it sizes anything.
fn batch_count(
    r: &mut Reader<'_>,
    field: &'static str,
    min_entry: usize,
) -> Result<usize, WireError> {
    let count = r.u32()?;
    if count as usize > r.remaining() / min_entry {
        return Err(WireError::BadLength {
            field,
            len: u64::from(count),
        });
    }
    Ok(count as usize)
}

/// Typed error classes an [`Frame::Error`] reply carries.
///
/// Unknown discriminants decode as [`ErrorCode::Unknown`] instead of
/// failing the frame, so a newer replica can refuse a request with a
/// code this build has never heard of and the client still sees a typed
/// error reply rather than a dead connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The request frame did not decode.
    Malformed,
    /// The request kind (or protocol version) is not supported.
    Unsupported,
    /// The request or its reply would exceed the frame-size cap.
    TooLarge,
    /// The replica failed internally.
    Internal,
    /// A code minted by a protocol revision this build does not know.
    Unknown(
        /// The raw discriminant.
        u16,
    ),
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::TooLarge => 3,
            ErrorCode::Internal => 4,
            ErrorCode::Unknown(c) => c,
        }
    }

    fn from_u16(c: u16) -> Self {
        match c {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::TooLarge,
            4 => ErrorCode::Internal,
            other => ErrorCode::Unknown(other),
        }
    }

    /// Stable lowercase name (diagnostics, metrics).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::Internal => "internal",
            ErrorCode::Unknown(_) => "unknown",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One protocol message.
///
/// A connection opens with `Hello`/`HelloAck` (magic + version check),
/// then carries any number of `Query`/`Store` requests, each over a
/// batch of registers, answered by `QueryReply`/`StoreAck`/`Error`,
/// matched by request id. Requests are retransmission-safe: replicas
/// dedupe `Store` by id and answer every `Query` delivery, exactly like
/// the simulated network's replicas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client opening handshake.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
        /// Client identity (diagnostics only; quorum math is positional).
        client: u32,
    },
    /// Replica handshake acceptance.
    HelloAck {
        /// Protocol version the replica speaks.
        version: u16,
        /// The replica's index in the cluster.
        replica: u32,
    },
    /// "Send me your `(tag, value)` for each of these registers."
    Query {
        /// Request id (dedup + reply matching).
        id: u64,
        /// The registers' `(lane, segment)` coordinates.
        registers: Vec<(u32, u32)>,
    },
    /// "Store each `(tag, value)` that exceeds yours, then ack."
    Store {
        /// Request id (dedup + reply matching).
        id: u64,
        /// The registers, tags and encoded values.
        entries: Vec<StoreEntry>,
    },
    /// Reply to [`Frame::Query`]: the replica's current `(tag, value)`
    /// for each register asked about, in request order (a value is
    /// absent if the replica has never stored that register).
    QueryReply {
        /// The request id this answers.
        id: u64,
        /// The current tag and encoded value, per register.
        values: Vec<(WireTag, Option<Vec<u8>>)>,
    },
    /// Reply to [`Frame::Store`]: applied (or recognized as a duplicate
    /// and re-acked).
    StoreAck {
        /// The request id this answers.
        id: u64,
    },
    /// Typed refusal: the request was received but not served.
    Error {
        /// The request id this answers (0 when the request's id was
        /// itself unreadable).
        id: u64,
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

impl Frame {
    /// Encodes this frame's body (the framing layer adds the length
    /// prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            Frame::Hello { version, client } => {
                out.push(KIND_HELLO);
                out.extend_from_slice(&MAGIC);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&client.to_le_bytes());
            }
            Frame::HelloAck { version, replica } => {
                out.push(KIND_HELLO_ACK);
                out.extend_from_slice(&MAGIC);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&replica.to_le_bytes());
            }
            Frame::Query { id, registers } => {
                out.push(KIND_QUERY);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(registers.len() as u32).to_le_bytes());
                for (lane, segment) in registers {
                    out.extend_from_slice(&lane.to_le_bytes());
                    out.extend_from_slice(&segment.to_le_bytes());
                }
            }
            Frame::Store { id, entries } => {
                out.push(KIND_STORE);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for entry in entries {
                    out.extend_from_slice(&entry.lane.to_le_bytes());
                    out.extend_from_slice(&entry.segment.to_le_bytes());
                    entry.tag.encode_into(&mut out);
                    put_bytes(&mut out, &entry.value);
                }
            }
            Frame::QueryReply { id, values } => {
                out.push(KIND_QUERY_REPLY);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for (tag, value) in values {
                    tag.encode_into(&mut out);
                    match value {
                        None => out.push(0),
                        Some(v) => {
                            out.push(1);
                            put_bytes(&mut out, v);
                        }
                    }
                }
            }
            Frame::StoreAck { id } => {
                out.push(KIND_STORE_ACK);
                out.extend_from_slice(&id.to_le_bytes());
            }
            Frame::Error { id, code, detail } => {
                out.push(KIND_ERROR);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&code.to_u16().to_le_bytes());
                put_bytes(&mut out, detail.as_bytes());
            }
        }
        out
    }

    /// Decodes one frame body. Never panics: every malformation maps to a
    /// typed [`WireError`].
    pub fn decode(body: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader::new(body);
        let frame = match r.u8()? {
            kind @ (KIND_HELLO | KIND_HELLO_ACK) => {
                let magic: [u8; 4] = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
                if magic != MAGIC {
                    return Err(WireError::BadMagic(magic));
                }
                let version = r.u16()?;
                let peer = r.u32()?;
                if kind == KIND_HELLO {
                    Frame::Hello {
                        version,
                        client: peer,
                    }
                } else {
                    Frame::HelloAck {
                        version,
                        replica: peer,
                    }
                }
            }
            KIND_QUERY => {
                let id = r.u64()?;
                let count = batch_count(&mut r, "query.count", MIN_QUERY_ENTRY)?;
                let mut registers = Vec::with_capacity(count);
                for _ in 0..count {
                    registers.push((r.u32()?, r.u32()?));
                }
                Frame::Query { id, registers }
            }
            KIND_STORE => {
                let id = r.u64()?;
                let count = batch_count(&mut r, "store.count", MIN_STORE_ENTRY)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(StoreEntry {
                        lane: r.u32()?,
                        segment: r.u32()?,
                        tag: WireTag::decode_from(&mut r)?,
                        value: r.bytes("store.value")?.to_vec(),
                    });
                }
                Frame::Store { id, entries }
            }
            KIND_QUERY_REPLY => {
                let id = r.u64()?;
                let count = batch_count(&mut r, "query_reply.count", MIN_REPLY_ENTRY)?;
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    let tag = WireTag::decode_from(&mut r)?;
                    let value = match r.u8()? {
                        0 => None,
                        _ => Some(r.bytes("query_reply.value")?.to_vec()),
                    };
                    values.push((tag, value));
                }
                Frame::QueryReply { id, values }
            }
            KIND_STORE_ACK => Frame::StoreAck { id: r.u64()? },
            KIND_ERROR => Frame::Error {
                id: r.u64()?,
                code: ErrorCode::from_u16(r.u16()?),
                detail: r.string("error.detail")?,
            },
            other => return Err(WireError::UnknownFrameKind(other)),
        };
        r.finish()?;
        Ok(frame)
    }

    /// How many bytes a `QueryReply` holding values of these lengths
    /// (`None` = register not held) encodes to. A replica checks it
    /// against its frame cap *before* copying a single value, so the
    /// memory a query can make it allocate is bounded by the cap and not
    /// by how many (or how often the same) registers the query names.
    pub fn query_reply_len(values: impl IntoIterator<Item = Option<usize>>) -> u64 {
        let header = 1 + 8 + 4;
        values.into_iter().fold(header, |len, value| {
            len + MIN_REPLY_ENTRY as u64 + value.map_or(0, |v| 4 + v as u64)
        })
    }

    /// The request id this frame carries (handshake frames have none).
    pub fn request_id(&self) -> Option<u64> {
        match self {
            Frame::Hello { .. } | Frame::HelloAck { .. } => None,
            Frame::Query { id, .. }
            | Frame::Store { id, .. }
            | Frame::QueryReply { id, .. }
            | Frame::StoreAck { id }
            | Frame::Error { id, .. } => Some(*id),
        }
    }

    /// Stable lowercase name of the frame kind (diagnostics, metrics).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloAck { .. } => "hello_ack",
            Frame::Query { .. } => "query",
            Frame::Store { .. } => "store",
            Frame::QueryReply { .. } => "query_reply",
            Frame::StoreAck { .. } => "store_ack",
            Frame::Error { .. } => "error",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lane: u32, segment: u32, seq: u64, value: Vec<u8>) -> StoreEntry {
        StoreEntry {
            lane,
            segment,
            tag: WireTag { seq, writer: 4 },
            value,
        }
    }

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                client: 3,
            },
            Frame::HelloAck {
                version: PROTOCOL_VERSION,
                replica: 1,
            },
            Frame::Query {
                id: 42,
                registers: vec![(2, 7)],
            },
            Frame::Query {
                id: 43,
                registers: (0..8).map(|i| (i, i)).collect(),
            },
            Frame::Query {
                id: 44,
                registers: vec![],
            },
            Frame::Store {
                id: u64::MAX,
                entries: vec![entry(0, u32::MAX, 99, vec![1, 2, 3])],
            },
            Frame::Store {
                id: 8,
                entries: vec![
                    entry(1, 1, 5, vec![]),
                    entry(2, 2, 6, vec![9; 40]),
                    entry(3, 0, 7, vec![1]),
                ],
            },
            Frame::QueryReply {
                id: 7,
                values: vec![(WireTag::default(), None)],
            },
            Frame::QueryReply {
                id: 7,
                values: vec![
                    (WireTag { seq: 1, writer: 0 }, Some(vec![])),
                    (WireTag::default(), None),
                    (WireTag { seq: 9, writer: 3 }, Some(vec![7; 21])),
                ],
            },
            Frame::StoreAck { id: 1 },
            Frame::Error {
                id: 0,
                code: ErrorCode::Malformed,
                detail: String::from("kind 200 unknown"),
            },
            Frame::Error {
                id: 5,
                code: ErrorCode::Unknown(700),
                detail: String::new(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in all_frames() {
            let body = frame.encode();
            assert_eq!(Frame::decode(&body).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn query_reply_len_is_the_encoded_length() {
        for frame in all_frames() {
            if let Frame::QueryReply { values, .. } = &frame {
                let lens = values.iter().map(|(_, v)| v.as_ref().map(Vec::len));
                assert_eq!(
                    Frame::query_reply_len(lens),
                    frame.encode().len() as u64,
                    "{frame:?}"
                );
            }
        }
        // u64 arithmetic: a hostile query naming one big register 131k
        // times is sized without overflow and without allocating.
        let huge = Frame::query_reply_len((0..131_000).map(|_| Some(1 << 20)));
        assert!(huge > u64::from(u32::MAX));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for frame in all_frames() {
            let body = frame.encode();
            for cut in 0..body.len() {
                match Frame::decode(&body[..cut]) {
                    Err(_) => {}
                    Ok(f) => panic!("{cut}-byte prefix of {frame:?} decoded as {f:?}"),
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for frame in all_frames() {
            let mut body = frame.encode();
            body.push(0);
            assert_eq!(
                Frame::decode(&body),
                Err(WireError::TrailingBytes { extra: 1 }),
                "{frame:?}"
            );
        }
    }

    #[test]
    fn hostile_batch_count_is_a_typed_bad_length_without_allocation() {
        // A count the body cannot hold must be refused before a vector
        // is sized by it: u32::MAX entries would be a 32–100 GiB request.
        for (kind, field) in [
            (KIND_QUERY, "query.count"),
            (KIND_STORE, "store.count"),
            (KIND_QUERY_REPLY, "query_reply.count"),
        ] {
            for count in [u32::MAX, 3] {
                let mut body = vec![kind];
                body.extend_from_slice(&7u64.to_le_bytes());
                body.extend_from_slice(&count.to_le_bytes());
                // Too short for three entries of any kind.
                body.extend_from_slice(&[0u8; 20]);
                assert_eq!(
                    Frame::decode(&body),
                    Err(WireError::BadLength {
                        field,
                        len: u64::from(count)
                    })
                );
            }
        }
    }

    #[test]
    fn unknown_kind_and_bad_magic_are_typed() {
        assert_eq!(Frame::decode(&[200]), Err(WireError::UnknownFrameKind(200)));
        assert_eq!(
            Frame::decode(&[]),
            Err(WireError::Truncated {
                expected: 1,
                got: 0
            })
        );
        let mut hello = Frame::Hello {
            version: 1,
            client: 0,
        }
        .encode();
        hello[1] = b'X';
        assert!(matches!(Frame::decode(&hello), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn unknown_error_codes_still_decode() {
        let body = Frame::Error {
            id: 3,
            code: ErrorCode::Unknown(612),
            detail: String::from("future"),
        }
        .encode();
        match Frame::decode(&body).unwrap() {
            Frame::Error {
                code: ErrorCode::Unknown(612),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }
}
