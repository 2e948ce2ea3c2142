//! Wire-protocol robustness: round-trips for every frame type, and the
//! guarantee that arbitrary truncation, corruption, or oversize input
//! surfaces as a typed error — never a panic, never an allocation bomb.
//!
//! Generation is a seeded deterministic fuzzer (xorshift — reproducible
//! in any environment; a failure names its iteration).

use std::io::Cursor;

use snapshot_wire::{
    read_frame, write_frame, ErrorCode, Frame, FrameIoError, FrameRead, StoreEntry, WireError,
    WireTag, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};

/// Minimal xorshift64* PRNG: reproducible fuzz without external deps.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

fn random_tag(rng: &mut XorShift) -> WireTag {
    WireTag {
        seq: rng.next_u64(),
        writer: rng.next_u64() as u32,
    }
}

/// One pseudo-random frame of any variant; the batched kinds (3/4/5)
/// carry zero to eight entries.
fn random_frame(rng: &mut XorShift) -> Frame {
    match rng.below(7) {
        0 => Frame::Hello {
            version: rng.next_u64() as u16,
            client: rng.next_u64() as u32,
        },
        1 => Frame::HelloAck {
            version: rng.next_u64() as u16,
            replica: rng.next_u64() as u32,
        },
        2 => Frame::Query {
            id: rng.next_u64(),
            registers: (0..rng.below(9))
                .map(|_| (rng.next_u64() as u32, rng.next_u64() as u32))
                .collect(),
        },
        3 => Frame::Store {
            id: rng.next_u64(),
            entries: (0..rng.below(9))
                .map(|_| StoreEntry {
                    lane: rng.next_u64() as u32,
                    segment: rng.next_u64() as u32,
                    tag: random_tag(rng),
                    value: {
                        let len = rng.below(64);
                        rng.bytes(len)
                    },
                })
                .collect(),
        },
        4 => Frame::QueryReply {
            id: rng.next_u64(),
            values: (0..rng.below(9))
                .map(|_| {
                    let tag = random_tag(rng);
                    let value = if rng.below(2) == 0 {
                        None
                    } else {
                        let len = rng.below(64);
                        Some(rng.bytes(len))
                    };
                    (tag, value)
                })
                .collect(),
        },
        5 => Frame::StoreAck { id: rng.next_u64() },
        _ => Frame::Error {
            id: rng.next_u64(),
            code: match rng.below(5) {
                0 => ErrorCode::Malformed,
                1 => ErrorCode::Unsupported,
                2 => ErrorCode::TooLarge,
                3 => ErrorCode::Internal,
                // ≥ 5: the reserved discriminants 1–4 decode back to the
                // named codes, so Unknown(3) would not round-trip.
                _ => ErrorCode::Unknown(5 + (rng.next_u64() as u16 % 1000)),
            },
            detail: {
                let len = rng.below(32);
                String::from_utf8_lossy(&rng.bytes(len)).into_owned()
            },
        },
    }
}

/// Handshake frames carry the *compiled* protocol constants on the wire:
/// decoding one generated with a different version yields a typed
/// `UnsupportedVersion`, so a round-trip assertion must pin the version.
fn round_trippable(frame: Frame) -> Frame {
    match frame {
        Frame::Hello { client, .. } => Frame::Hello {
            version: PROTOCOL_VERSION,
            client,
        },
        Frame::HelloAck { replica, .. } => Frame::HelloAck {
            version: PROTOCOL_VERSION,
            replica,
        },
        other => other,
    }
}

#[test]
fn seeded_fuzz_every_frame_round_trips() {
    let mut rng = XorShift::new(0x51AB_5EED);
    for i in 0..2000 {
        let frame = round_trippable(random_frame(&mut rng));
        let body = frame.encode();
        let decoded = Frame::decode(&body)
            .unwrap_or_else(|e| panic!("iteration {i}: {frame:?} failed decode: {e}"));
        assert_eq!(decoded, frame, "iteration {i}");
    }
}

#[test]
fn seeded_fuzz_truncation_is_a_typed_error_never_a_panic() {
    let mut rng = XorShift::new(0xDEAD_CAFE);
    for _ in 0..500 {
        let frame = round_trippable(random_frame(&mut rng));
        let body = frame.encode();
        for cut in 0..body.len() {
            // Every proper prefix must fail decode with a typed error —
            // the loop itself is the "never panics" assertion.
            assert!(
                Frame::decode(&body[..cut]).is_err(),
                "prefix {cut}/{} of {frame:?} decoded",
                body.len()
            );
        }
    }
}

#[test]
fn seeded_fuzz_corruption_never_panics() {
    let mut rng = XorShift::new(0xBAD_F00D);
    for _ in 0..500 {
        let frame = round_trippable(random_frame(&mut rng));
        let mut body = frame.encode();
        let pos = rng.below(body.len());
        let flip = (rng.next_u64() as u8) | 1; // never a zero-xor no-op
        body[pos] ^= flip;
        // A flipped byte may still decode (payload bytes are opaque);
        // what it may never do is panic or loop.
        let _ = Frame::decode(&body);
    }
}

#[test]
fn seeded_fuzz_random_garbage_never_panics() {
    let mut rng = XorShift::new(0x0DD_BA11);
    for _ in 0..2000 {
        let len = rng.below(96);
        let garbage = rng.bytes(len);
        let _ = Frame::decode(&garbage);
    }
}

#[test]
fn seeded_fuzz_framing_round_trips_any_body() {
    // The framing layer is payload-agnostic: arbitrary bytes, frames or
    // not, come back exactly.
    let mut rng = XorShift::new(0xF4A_3E5);
    for i in 0..500 {
        let len = rng.below(512);
        let body = rng.bytes(len);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body, DEFAULT_MAX_FRAME).expect("write");
        let mut cursor = Cursor::new(wire);
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("read") {
            FrameRead::Frame(read_body) => assert_eq!(read_body, body, "iteration {i}"),
            FrameRead::Eof => panic!("iteration {i}: unexpected EOF"),
        }
    }
}

#[test]
fn framing_layer_round_trips_and_rejects_oversize_on_both_sides() {
    let frame = Frame::Store {
        id: 9,
        entries: vec![StoreEntry {
            lane: 1,
            segment: 2,
            tag: WireTag { seq: 3, writer: 4 },
            value: vec![0xAB; 4096],
        }],
    };
    let body = frame.encode();

    // Round trip through the length-prefixed framing.
    let mut wire = Vec::new();
    write_frame(&mut wire, &body, DEFAULT_MAX_FRAME).expect("write");
    let mut cursor = Cursor::new(wire.clone());
    match read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("read") {
        FrameRead::Frame(read_body) => {
            assert_eq!(read_body, body);
            assert_eq!(Frame::decode(&read_body).expect("decode"), frame);
        }
        FrameRead::Eof => panic!("unexpected EOF"),
    }

    // The write path refuses before touching the stream…
    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, &body, 16),
        Err(FrameIoError::TooLarge { .. })
    ));
    assert!(sink.is_empty(), "oversize write must not touch the stream");

    // …and the read path refuses before allocating the body.
    let mut cursor = Cursor::new(wire);
    assert!(matches!(
        read_frame(&mut cursor, 16),
        Err(FrameIoError::TooLarge { .. })
    ));
}

#[test]
fn absurd_length_prefix_is_rejected_without_allocation() {
    // A 4GiB length prefix (plus the v2 crc slot) followed by nothing:
    // the guard must fire on the prefix alone (allocating would OOM
    // long before the read fails).
    let mut cursor = Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0]);
    assert!(matches!(
        read_frame(&mut cursor, DEFAULT_MAX_FRAME),
        Err(FrameIoError::TooLarge { len: 0xFFFF_FFFF, .. })
    ));
}

#[test]
fn unknown_frame_kind_and_bad_magic_are_typed() {
    assert!(matches!(
        Frame::decode(&[0xEE]),
        Err(WireError::UnknownFrameKind(0xEE))
    ));
    let mut hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        client: 1,
    }
    .encode();
    hello[1] = b'X'; // first magic byte after the kind
    assert!(matches!(Frame::decode(&hello), Err(WireError::BadMagic(_))));
}
