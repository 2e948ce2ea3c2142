//! The framing layer: length-prefixed, CRC-guarded frames over a byte
//! stream.
//!
//! Every protocol message travels as one *frame*: a little-endian `u32`
//! length prefix, a little-endian CRC-32 of the body, then exactly
//! `len` body bytes. The reader enforces a maximum frame size **before**
//! allocating, so a corrupt or hostile length prefix can never balloon
//! memory — it surfaces as the typed [`FrameIoError::TooLarge`] and the
//! connection is dropped. The CRC closes the other half of the threat
//! model: a frame whose *body* was damaged in flight (a lossy middlebox,
//! a flipped bit) fails the checksum and surfaces as
//! [`FrameIoError::Corrupt`] instead of silently decoding into a
//! plausible-but-wrong store or reply. Either way the stream is no
//! longer trustworthy and costs at most its own connection.

use std::io::{self, Read, Write};

use crate::error::WireError;
use crate::store::crc32;

/// Default upper bound on one frame's body, in bytes (1 MiB).
///
/// Generous for the snapshot workload (a frame carries one register
/// record), small enough that a garbage length prefix cannot cause a
/// multi-gigabyte allocation.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Outcome of reading one frame from a stream.
#[derive(Debug)]
pub enum FrameRead {
    /// One complete frame body.
    Frame(Vec<u8>),
    /// The peer closed the stream cleanly (EOF on a frame boundary).
    Eof,
}

/// Typed failure of the frame read path.
#[derive(Debug)]
pub enum FrameIoError {
    /// The underlying stream failed (including EOF *inside* a frame,
    /// which surfaces as [`io::ErrorKind::UnexpectedEof`]).
    Io(io::Error),
    /// The length prefix exceeds the configured maximum frame size. The
    /// body was **not** read (let alone allocated); the stream is no
    /// longer frame-aligned and must be dropped.
    TooLarge {
        /// The advertised body length.
        len: u32,
        /// The configured maximum.
        max: u32,
    },
    /// The body failed its CRC-32 check: the bytes were damaged between
    /// the peer's checksum and ours. The stream may also be desynced
    /// (the length prefix itself could be the damaged part) and must be
    /// dropped.
    Corrupt {
        /// The checksum the frame header promised.
        expected: u32,
        /// The checksum of the body as received.
        got: u32,
    },
}

impl std::fmt::Display for FrameIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameIoError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameIoError::TooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            FrameIoError::Corrupt { expected, got } => write!(
                f,
                "frame body failed its crc32 check (expected {expected:#010x}, got {got:#010x})"
            ),
        }
    }
}

impl std::error::Error for FrameIoError {}

impl From<io::Error> for FrameIoError {
    fn from(e: io::Error) -> Self {
        FrameIoError::Io(e)
    }
}

impl FrameIoError {
    /// The oversize case as a protocol-level [`WireError`] (for callers
    /// folding both error planes into one report).
    pub fn as_wire_error(&self) -> Option<WireError> {
        match self {
            FrameIoError::TooLarge { len, max } => Some(WireError::FrameTooLarge {
                len: u64::from(*len),
                max: u64::from(*max),
            }),
            FrameIoError::Io(_) | FrameIoError::Corrupt { .. } => None,
        }
    }
}

/// Frames `body` (length prefix + body CRC + body) into one buffer, so
/// a frame leaves in one `write` and can be encoded once for several
/// peers.
///
/// Refuses bodies longer than `max` with [`FrameIoError::TooLarge`], so
/// a local encoding bug cannot desync the peer.
pub fn encode_frame(body: &[u8], max: u32) -> Result<Vec<u8>, FrameIoError> {
    let len = u32::try_from(body.len()).map_err(|_| FrameIoError::TooLarge {
        len: u32::MAX,
        max,
    })?;
    if len > max {
        return Err(FrameIoError::TooLarge { len, max });
    }
    let mut framed = Vec::with_capacity(8 + body.len());
    framed.extend_from_slice(&len.to_le_bytes());
    framed.extend_from_slice(&crc32(body).to_le_bytes());
    framed.extend_from_slice(body);
    Ok(framed)
}

/// Writes one frame to `w` as one buffer ([`encode_frame`]).
///
/// An oversize body is refused *before* touching the stream.
pub fn write_frame(w: &mut impl Write, body: &[u8], max: u32) -> Result<(), FrameIoError> {
    w.write_all(&encode_frame(body, max)?)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from `r`, enforcing the `max` body-size guard before
/// allocating the body buffer and the CRC guard before returning it.
///
/// A clean EOF before the first prefix byte is [`FrameRead::Eof`]; EOF
/// anywhere inside a frame is an [`io::ErrorKind::UnexpectedEof`] error
/// (the peer died mid-frame).
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<FrameRead, FrameIoError> {
    let mut prefix = [0u8; 8];
    // Hand-rolled first-byte read to distinguish "clean close" from
    // "died mid-prefix".
    let mut got = 0usize;
    while got < 8 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(FrameRead::Eof),
            Ok(0) => {
                return Err(FrameIoError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame length prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameIoError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix[..4].try_into().expect("4-byte slice"));
    let expected = u32::from_le_bytes(prefix[4..].try_into().expect("4-byte slice"));
    if len > max {
        return Err(FrameIoError::TooLarge { len, max });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let got = crc32(&body);
    if got != expected {
        return Err(FrameIoError::Corrupt { expected, got });
    }
    Ok(FrameRead::Frame(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_a_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"", DEFAULT_MAX_FRAME).unwrap();
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap() {
            FrameRead::Frame(b) => assert_eq!(b, b"hello"),
            FrameRead::Eof => panic!("expected a frame"),
        }
        match read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap() {
            FrameRead::Frame(b) => assert!(b.is_empty()),
            FrameRead::Eof => panic!("expected the empty frame"),
        }
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn oversize_prefix_is_rejected_before_allocating() {
        // 4 GiB-1 advertised length, 0 body bytes behind it: must fail on
        // the guard, not on an allocation or an EOF.
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&0u32.to_le_bytes()); // the crc slot
        buf.push(0);
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, 1024) {
            Err(FrameIoError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversize_write_is_refused_locally() {
        let mut buf = Vec::new();
        let body = vec![0u8; 32];
        match write_frame(&mut buf, &body, 16) {
            Err(FrameIoError::TooLarge { len: 32, max: 16 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert!(buf.is_empty(), "nothing may reach the stream");
    }

    #[test]
    fn eof_inside_prefix_or_body_is_unexpected_eof() {
        let mut r = Cursor::new(vec![5u8, 0]); // a fragment of the prefix
        match read_frame(&mut r, 1024) {
            Err(FrameIoError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("{other:?}"),
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef", 1024).unwrap();
        buf.truncate(11); // len + crc + 3 of 6 body bytes
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, 1024) {
            Err(FrameIoError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("{other:?}"),
        }
    }

    /// A sink that counts `write` calls.
    #[derive(Default)]
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let mut sink = CountingWrite::default();
        let mut expected = Vec::new();
        for (i, body) in [&b"query"[..], b"", &[7u8; 4096]].into_iter().enumerate() {
            write_frame(&mut sink, body, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(sink.writes, i + 1, "frame {i} took more than one write");
            expected.extend(encode_frame(body, DEFAULT_MAX_FRAME).unwrap());
        }
        assert_eq!(sink.bytes, expected);
    }

    /// A stream that hands out its bytes in seeded random chunks, the
    /// way a socket does.
    struct Chunked {
        bytes: Vec<u8>,
        at: usize,
        rng: crate::hostile::XorShift,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let left = self.bytes.len() - self.at;
            let chunk = 1 + (self.rng.next_u64() % 64) as usize;
            let n = chunk.min(left).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn buffered_reads_decode_back_to_back_frames_split_at_random() {
        for seed in 1..=32u64 {
            let mut rng = crate::hostile::XorShift::new(seed);
            let bodies: Vec<Vec<u8>> = (0..20)
                .map(|_| {
                    let len = (rng.next_u64() % 300) as usize;
                    (0..len).map(|_| rng.next_u64() as u8).collect()
                })
                .collect();
            let mut bytes = Vec::new();
            for body in &bodies {
                write_frame(&mut bytes, body, DEFAULT_MAX_FRAME).unwrap();
            }
            // A small buffer, so frames straddle refills as well as chunks.
            let mut r = io::BufReader::with_capacity(
                97,
                Chunked {
                    bytes,
                    at: 0,
                    rng,
                },
            );
            for (i, body) in bodies.iter().enumerate() {
                match read_frame(&mut r, DEFAULT_MAX_FRAME) {
                    Ok(FrameRead::Frame(got)) => assert_eq!(&got, body, "seed {seed} frame {i}"),
                    other => panic!("seed {seed} frame {i}: {other:?}"),
                }
            }
            assert!(matches!(
                read_frame(&mut r, DEFAULT_MAX_FRAME),
                Ok(FrameRead::Eof)
            ));
        }
    }

    #[test]
    fn damaged_body_fails_the_crc_not_the_decode() {
        // Flip one body bit in an otherwise perfectly framed message:
        // the reader must refuse it as Corrupt — this is exactly the
        // frame a hostile middlebox would hand us, and before the CRC it
        // decoded into a plausible-but-wrong message.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"store lane=1 seq=9", 1024).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, 1024) {
            Err(FrameIoError::Corrupt { expected, got }) => assert_ne!(expected, got),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
