//! Hand-rolled value encoding: the [`WireValue`] trait and a bounds-checked
//! [`Reader`].
//!
//! The workspace takes no serialization dependency (mirroring the
//! hand-rolled JSON in `snapshot-bench`), so register values cross the
//! wire through this trait: little-endian fixed-width integers,
//! length-prefixed byte strings, and structural composition for options,
//! vectors and tuples. Every decode is bounds-checked against the
//! remaining buffer and returns a typed [`WireError`] — never a panic.

use crate::error::WireError;

/// A bounds-checked cursor over a byte buffer being decoded.
///
/// All multi-byte integers are little-endian. Length fields are validated
/// against the bytes actually remaining before any allocation, so a
/// corrupt length can cost at most one typed error.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts decoding `buf` from its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                expected: n,
                got: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32` length prefix followed by that many raw bytes,
    /// validating the length against the remaining buffer first.
    pub fn bytes(&mut self, field: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.u32()?;
        if len as usize > self.remaining() {
            return Err(WireError::BadLength {
                field,
                len: u64::from(len),
            });
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self, field: &'static str) -> Result<String, WireError> {
        let raw = self.bytes(field)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }

    /// Asserts the buffer was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Appends a `u32` length prefix and the raw bytes.
pub fn put_bytes(out: &mut Vec<u8>, raw: &[u8]) {
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    out.extend_from_slice(raw);
}

/// A value that crosses the wire protocol.
///
/// Implementations must be *canonical*: `decode(encode(v)) == v` and the
/// decoder consumes exactly the bytes the encoder produced (composition
/// inside larger messages depends on it; `tests/proptest_wire.rs` checks both).
pub trait WireValue: Sized {
    /// Appends this value's canonical encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader's current position.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// This value's canonical encoding as an owned buffer.
    fn encode_to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes a value that must occupy `buf` exactly (trailing bytes are
    /// a [`WireError::TrailingBytes`]).
    fn decode_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! int_wire_value {
    ($($t:ty => $read:ident),* $(,)?) => {$(
        impl WireValue for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(r.$read()? as $t)
            }
        }
    )*};
}

int_wire_value! {
    u8 => u8,
    u16 => u16,
    u32 => u32,
    u64 => u64,
    i32 => u32,
    i64 => u64,
}

impl WireValue for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.u8()? != 0)
    }
}

impl WireValue for f64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl WireValue for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.string("string")
    }
}

impl<T: WireValue> WireValue for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            _ => Ok(Some(T::decode_from(r)?)),
        }
    }
}

impl<T: WireValue> WireValue for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for v in self {
            v.encode_into(out);
        }
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.u32()?;
        // Every element costs at least one byte on the wire, so an
        // element count beyond the remaining bytes is corruption — catch
        // it before reserving capacity for it.
        if len as usize > r.remaining() {
            return Err(WireError::BadLength {
                field: "vec",
                len: u64::from(len),
            });
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(T::decode_from(r)?);
        }
        Ok(out)
    }
}

impl<A: WireValue, B: WireValue> WireValue for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
}

impl<A: WireValue, B: WireValue, C: WireValue> WireValue for (A, B, C) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?, C::decode_from(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: WireValue + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.encode_to_bytes();
        assert_eq!(T::decode_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(u16::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(-1i64);
        round_trip(i32::MIN);
        round_trip(true);
        round_trip(false);
        round_trip(3.5f64);
        round_trip(String::from("héllo"));
        round_trip(String::new());
    }

    #[test]
    fn composites_round_trip() {
        round_trip(Some(7u64));
        round_trip(None::<u64>);
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip((1u64, String::from("x")));
        round_trip((1u8, 2u16, vec![3u64]));
        round_trip(vec![Some((1u64, false)), None]);
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = 5u32.encode_to_bytes();
        bytes.push(0xFF);
        assert_eq!(
            u32::decode_bytes(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = (7u64, String::from("payload")).encode_to_bytes();
        for cut in 0..bytes.len() {
            let err = <(u64, String)>::decode_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn absurd_vec_length_is_caught_before_allocation() {
        // Claims u32::MAX elements with a 4-byte body.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        match Vec::<u8>::decode_bytes(&bytes) {
            Err(WireError::BadLength { field: "vec", .. }) => {}
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    #[test]
    fn string_rejects_bad_utf8() {
        let mut bytes = Vec::new();
        put_bytes(&mut bytes, &[0xFF, 0xFE]);
        assert_eq!(String::decode_bytes(&bytes), Err(WireError::BadUtf8));
    }
}
