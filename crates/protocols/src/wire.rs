//! Binary wire codec for the inter-cloud transport.
//!
//! Every protocol message that crosses the S1 ↔ S2 boundary is lowered into the serde
//! [`serde::Value`] tree and encoded with this compact, self-describing binary format.
//! The [`crate::channel::ChannelMetrics`] byte counts are *measured* from these encoded
//! buffers — not estimated from `byte_len()` sums — so the bandwidth figures (Table 3 /
//! Fig. 13) reflect what an actual deployment would put on the wire, including framing
//! overhead (field names, tags, lengths).  The ciphertext counts come from the same
//! walk that measures, encodes or decodes a message ([`Traffic`]).
//!
//! Format, one tag byte per node:
//!
//! | tag | payload |
//! |-----|---------|
//! | `0` | null |
//! | `1` / `2` | bool false / true |
//! | `3` | u64 as LEB128 varint |
//! | `4` | i64 zig-zag encoded as LEB128 varint |
//! | `5` | f64 as 8 big-endian bytes |
//! | `6` | string: varint length + UTF-8 bytes |
//! | `7` | byte string: varint length + raw bytes (ciphertexts use this) |
//! | `8` | sequence: varint count + encoded items |
//! | `9` | map: varint count + (varint key length + key UTF-8 + encoded value)* |

// Workspace invariant 3 (DESIGN.md §15): the request/reply path returns typed errors, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fmt;
use std::ops::Add;

use serde::{Deserialize, Serialize, Value};

use sectopk_crypto::CryptoError;

// ====================================================================================
// The typed error frame
// ====================================================================================

/// Machine-readable failure class of a [`WireError`] frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireErrorCode {
    /// The request decoded, but its contents are structurally invalid (arity mismatch,
    /// index out of range, nested batch, zero-column matrix, …).
    MalformedRequest,
    /// The request bytes could not be decoded by the wire codec.
    Codec,
    /// The frame carried an unknown tag byte.
    UnknownFrame,
    /// A cryptographic operation failed while processing the request (corrupted
    /// ciphertext, wrong key, value out of range).
    Crypto,
    /// The serving side shed the request under load.  Unlike every other code this one
    /// is *transient*: the request was never executed and may safely be retried.  This
    /// S2 never sends it — a seated session's request waits for a compute permit on its
    /// own thread, and overload is refused per connection at the handshake — but it is
    /// part of the wire contract, so a peer that does shed is understood.
    Overloaded,
    /// The engine detected an internal inconsistency while processing the request
    /// (the plan phase described a request kind one way and the commit phase expects
    /// another).  The session survives, but the request failed for a
    /// reason that is S2's fault rather than the caller's; not retryable, because the
    /// inconsistency is deterministic for the request that exposed it.
    Internal,
}

impl WireErrorCode {
    /// Every code, in declaration order — for exhaustive tests and log tooling.
    pub const ALL: [WireErrorCode; 6] = [
        WireErrorCode::MalformedRequest,
        WireErrorCode::Codec,
        WireErrorCode::UnknownFrame,
        WireErrorCode::Crypto,
        WireErrorCode::Overloaded,
        WireErrorCode::Internal,
    ];

    /// Stable lowercase name, used in `Display` and log output.
    pub fn name(self) -> &'static str {
        match self {
            WireErrorCode::MalformedRequest => "malformed_request",
            WireErrorCode::Codec => "codec",
            WireErrorCode::UnknownFrame => "unknown_frame",
            WireErrorCode::Crypto => "crypto",
            WireErrorCode::Overloaded => "overloaded",
            WireErrorCode::Internal => "internal",
        }
    }

    /// True when a request failing with this code was *not* executed and may be
    /// retried verbatim (currently only [`WireErrorCode::Overloaded`]).
    pub fn is_retryable(self) -> bool {
        matches!(self, WireErrorCode::Overloaded)
    }
}

/// A structured error frame: how S2 reports a failure back across the transport.
///
/// Engine failures never panic the serving thread; they are encoded as an
/// `S2Response::Error(WireError)` message, metered and shipped like any other reply, and
/// surfaced to the caller as
/// [`ProtocolError::Remote`](crate::error::ProtocolError::Remote).  The `code` lets
/// callers (and the serving layer's failure accounting) distinguish "your request was
/// garbage" from "a ciphertext in it did not decrypt" without parsing strings.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable failure class.
    pub code: WireErrorCode,
    /// Human-readable context for logs and test failure messages.
    pub message: String,
}

impl WireError {
    /// Build an error frame from a code and a message.
    pub fn new(code: WireErrorCode, message: impl Into<String>) -> Self {
        WireError { code, message: message.into() }
    }

    /// A structurally invalid request.
    pub fn malformed(message: impl Into<String>) -> Self {
        Self::new(WireErrorCode::MalformedRequest, message)
    }

    /// A frame whose payload could not be decoded.
    pub fn codec(message: impl Into<String>) -> Self {
        Self::new(WireErrorCode::Codec, message)
    }

    /// A frame with an unknown tag byte.
    pub fn unknown_frame(tag: u8) -> Self {
        Self::new(WireErrorCode::UnknownFrame, format!("unknown frame tag {tag}"))
    }

    /// A request shed under load before execution (safe to retry).
    pub fn overloaded(message: impl Into<String>) -> Self {
        Self::new(WireErrorCode::Overloaded, message)
    }

    /// An internal engine inconsistency surfaced while processing the request.
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(WireErrorCode::Internal, message)
    }

    /// True when the failed request was never executed and may be retried verbatim.
    pub fn is_retryable(&self) -> bool {
        self.code.is_retryable()
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code.name(), self.message)
    }
}

impl std::error::Error for WireError {}

impl From<CryptoError> for WireError {
    fn from(e: CryptoError) -> Self {
        WireError::new(WireErrorCode::Crypto, e.to_string())
    }
}

/// What messages put on the wire: their encoded bytes and the ciphertexts among them.
///
/// The ciphertext count is the number of byte strings (tag `7`) — exact for protocol
/// messages, since every ciphertext type serializes as one byte string and nothing else
/// in an [`S1Request`](crate::S1Request) / [`S2Response`](crate::S2Response) does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Encoded bytes.
    pub bytes: u64,
    /// Ciphertexts (byte strings) among them.
    pub ciphertexts: u64,
}

impl Add for Traffic {
    type Output = Traffic;

    fn add(self, other: Traffic) -> Traffic {
        Traffic {
            bytes: self.bytes + other.bytes,
            ciphertexts: self.ciphertexts + other.ciphertexts,
        }
    }
}

/// Encode any serializable message into its binary wire form.
pub fn to_bytes<T: Serialize + ?Sized>(message: &T) -> Vec<u8> {
    encode(message).0
}

/// [`to_bytes`], with the [`Traffic`] of the encoding.
pub fn encode<T: Serialize + ?Sized>(message: &T) -> (Vec<u8>, Traffic) {
    let value = message.to_value();
    let traffic = measure_value(&value);
    let mut out = Vec::with_capacity(traffic.bytes as usize);
    encode_value(&value, &mut out);
    (out, traffic)
}

/// The [`Traffic`] of [`encode`], without building the buffer.  The in-process
/// transport meters with this the messages it never actually serializes.
pub fn measure<T: Serialize + ?Sized>(message: &T) -> Traffic {
    measure_value(&message.to_value())
}

/// Maximum nesting depth a decoded value may have.  Protocol messages nest a handful of
/// levels (enum → struct → vec → tuple → bytes); the cap turns a corrupted or hostile
/// deeply-nested frame into a decode error instead of a stack overflow.
const MAX_DECODE_DEPTH: u32 = 64;

/// Decode a message from its binary wire form.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, serde::Error> {
    decode(bytes).map(|(message, _)| message)
}

/// [`from_bytes`], with the [`Traffic`] of the decoded bytes.
pub fn decode<T: Deserialize>(bytes: &[u8]) -> Result<(T, Traffic), serde::Error> {
    let mut cursor = Cursor { bytes, pos: 0, byte_strings: 0 };
    let value = decode_value(&mut cursor, 0)?;
    if cursor.pos != bytes.len() {
        return Err(serde::Error::custom("trailing bytes after wire message"));
    }
    let traffic = Traffic { bytes: bytes.len() as u64, ciphertexts: cursor.byte_strings };
    Ok((T::from_value(&value)?, traffic))
}

fn varint_len(mut v: u64) -> u64 {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// `v`'s encoded size, and the byte strings in it.
fn measure_value(v: &Value) -> Traffic {
    let node = |bytes: u64| Traffic { bytes: 1 + bytes, ciphertexts: 0 };
    let len = |n: usize| varint_len(n as u64) + n as u64;
    match v {
        Value::Null | Value::Bool(_) => node(0),
        Value::U64(n) => node(varint_len(*n)),
        Value::I64(n) => node(varint_len(zigzag(*n))),
        Value::F64(_) => node(8),
        Value::Str(s) => node(len(s.len())),
        Value::Bytes(b) => Traffic { ciphertexts: 1, ..node(len(b.len())) },
        Value::Seq(items) => {
            items.iter().map(measure_value).fold(node(varint_len(items.len() as u64)), Add::add)
        }
        Value::Map(entries) => {
            entries.iter().fold(node(varint_len(entries.len() as u64)), |sum, (k, v)| {
                sum + Traffic { bytes: len(k.len()), ciphertexts: 0 } + measure_value(v)
            })
        }
    }
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(false) => out.push(1),
        Value::Bool(true) => out.push(2),
        Value::U64(n) => {
            out.push(3);
            write_varint(*n, out);
        }
        Value::I64(n) => {
            out.push(4);
            write_varint(zigzag(*n), out);
        }
        Value::F64(f) => {
            out.push(5);
            out.extend_from_slice(&f.to_be_bytes());
        }
        Value::Str(s) => {
            out.push(6);
            write_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(7);
            write_varint(b.len() as u64, out);
            out.extend_from_slice(b);
        }
        Value::Seq(items) => {
            out.push(8);
            write_varint(items.len() as u64, out);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(9);
            write_varint(entries.len() as u64, out);
            for (k, v) in entries {
                write_varint(k.len() as u64, out);
                out.extend_from_slice(k.as_bytes());
                encode_value(v, out);
            }
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Byte strings decoded so far: the ciphertexts of a protocol message.
    byte_strings: u64,
}

impl Cursor<'_> {
    fn byte(&mut self) -> Result<u8, serde::Error> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| serde::Error::custom("truncated wire message"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&[u8], serde::Error> {
        // Indexing `pos..` first keeps every arithmetic step in-bounds; a pathological
        // length prefix (e.g. u64::MAX) fails the `get` instead of overflowing `pos + n`.
        let slice = self
            .bytes
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or_else(|| serde::Error::custom("truncated wire message"))?;
        self.pos += n;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, serde::Error> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 || (shift == 63 && (b & 0x7f) > 1) {
                // The 10th byte may only contribute the single remaining bit; anything
                // else would be silently shifted out of the u64.
                return Err(serde::Error::custom("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn string(&mut self) -> Result<String, serde::Error> {
        let len = self.varint()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| serde::Error::custom("invalid UTF-8 string"))
    }
}

fn decode_value(cursor: &mut Cursor<'_>, depth: u32) -> Result<Value, serde::Error> {
    if depth > MAX_DECODE_DEPTH {
        return Err(serde::Error::custom("wire message nests too deeply"));
    }
    match cursor.byte()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Bool(false)),
        2 => Ok(Value::Bool(true)),
        3 => Ok(Value::U64(cursor.varint()?)),
        4 => Ok(Value::I64(unzigzag(cursor.varint()?))),
        5 => {
            let raw = cursor.take(8)?;
            let mut buf = [0u8; 8];
            buf.copy_from_slice(raw);
            Ok(Value::F64(f64::from_be_bytes(buf)))
        }
        6 => Ok(Value::Str(cursor.string()?)),
        7 => {
            let len = cursor.varint()? as usize;
            cursor.byte_strings += 1;
            Ok(Value::Bytes(cursor.take(len)?.to_vec()))
        }
        8 => {
            let count = cursor.varint()? as usize;
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                items.push(decode_value(cursor, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        9 => {
            let count = cursor.varint()? as usize;
            let mut entries = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let key = cursor.string()?;
                entries.push((key, decode_value(cursor, depth + 1)?));
            }
            Ok(Value::Map(entries))
        }
        tag => Err(serde::Error::custom(format!("unknown wire tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let (buf, traffic) = encode(&v);
        assert_eq!(traffic.bytes, buf.len() as u64, "the measure must match: {v:?}");
        assert_eq!(measure(&v), traffic);
        let (back, decoded) = decode::<Value>(&buf).unwrap();
        assert_eq!(decoded, traffic);
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        for n in [0u64, 1, 127, 128, 300, u64::MAX] {
            round_trip(Value::U64(n));
        }
        for n in [0i64, -1, 1, i64::MIN, i64::MAX] {
            round_trip(Value::I64(n));
        }
        round_trip(Value::F64(2.75));
        round_trip(Value::Str("hello — utf8 ✓".into()));
        round_trip(Value::Bytes(vec![0, 255, 1, 2, 3]));
        round_trip(Value::Bytes(Vec::new()));
    }

    #[test]
    fn compounds_round_trip() {
        round_trip(Value::Seq(vec![Value::U64(1), Value::Str("x".into()), Value::Null]));
        round_trip(Value::Map(vec![
            ("a".into(), Value::Bytes(vec![9, 9])),
            ("b".into(), Value::Seq(vec![Value::Bool(true)])),
        ]));
    }

    #[test]
    fn typed_messages_round_trip() {
        let v: Vec<(usize, usize)> = vec![(0, 1), (7, 3)];
        let bytes = to_bytes(&v);
        assert_eq!(measure(&v), Traffic { bytes: bytes.len() as u64, ciphertexts: 0 });
        let back: Vec<(usize, usize)> = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn every_byte_string_counts_once_at_any_depth() {
        let bytes = |n: usize| Value::Bytes(vec![7; n]);
        let v = Value::Map(vec![
            ("a".into(), bytes(0)),
            ("b".into(), Value::Seq(vec![bytes(3), Value::Str("not one".into()), bytes(200)])),
            ("c".into(), Value::Seq(vec![Value::Map(vec![("d".into(), bytes(1))])])),
        ]);
        let (buf, traffic) = encode(&v);
        assert_eq!(traffic, Traffic { bytes: buf.len() as u64, ciphertexts: 4 });
        assert_eq!(decode::<Value>(&buf).unwrap().1, traffic);
        let sum = traffic + Traffic { bytes: 1, ciphertexts: 2 };
        assert_eq!(sum, Traffic { bytes: traffic.bytes + 1, ciphertexts: 6 });
    }

    #[test]
    fn truncation_and_garbage_are_errors() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        assert!(from_bytes::<Vec<u64>>(&bytes[..bytes.len() - 1]).is_err());
        assert!(from_bytes::<Vec<u64>>(&[250]).is_err(), "unknown tag");
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(from_bytes::<Vec<u64>>(&extended).is_err(), "trailing bytes");
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        // Thousands of [seq-of-one] frames: must be a decode error, not a stack overflow.
        let deep: Vec<u8> = std::iter::repeat_n([8u8, 1], 50_000).flatten().collect();
        assert!(from_bytes::<Vec<u64>>(&deep).is_err());
        // Nesting within the cap still decodes.
        let mut shallow = vec![8u8, 1, 8, 1];
        shallow.push(0); // innermost null
        assert!(from_bytes::<serde::Value>(&shallow).is_ok());
    }

    #[test]
    fn huge_length_prefixes_error_instead_of_panicking() {
        // Bytes tag with a u64::MAX length prefix: must be a decode error, not an
        // overflow panic in the bounds check.
        let mut frame = vec![7u8];
        frame.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert!(from_bytes::<Vec<u8>>(&frame).is_err());
        // Same for a sequence claiming u64::MAX items.
        let mut seq = vec![8u8];
        seq.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert!(from_bytes::<Vec<u64>>(&seq).is_err());
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // Tag 3 (u64) followed by ten continuation bytes whose last byte carries more
        // than the one bit that still fits in a u64 — must error, not truncate.
        let mut overlong = vec![3u8];
        overlong.extend_from_slice(&[0x80; 9]);
        overlong.push(0x7f);
        assert!(from_bytes::<u64>(&overlong).is_err());
        // Eleven bytes of continuation is an error too.
        let mut too_many = vec![3u8];
        too_many.extend_from_slice(&[0x80; 10]);
        too_many.push(0x01);
        assert!(from_bytes::<u64>(&too_many).is_err());
        // But u64::MAX itself (10th byte = 0x01) still round-trips.
        let max = to_bytes(&u64::MAX);
        assert_eq!(from_bytes::<u64>(&max).unwrap(), u64::MAX);
    }

    #[test]
    fn wire_error_frames_round_trip_and_display() {
        for (i, code) in WireErrorCode::ALL.into_iter().enumerate() {
            // `ALL` is every code, once, in declaration order.  No wildcard: a new variant
            // needs an arm, and its arm is a constant index out of bounds until `ALL` grows.
            let listed_at_its_position = match code {
                WireErrorCode::MalformedRequest => WireErrorCode::ALL[0],
                WireErrorCode::Codec => WireErrorCode::ALL[1],
                WireErrorCode::UnknownFrame => WireErrorCode::ALL[2],
                WireErrorCode::Crypto => WireErrorCode::ALL[3],
                WireErrorCode::Overloaded => WireErrorCode::ALL[4],
                WireErrorCode::Internal => WireErrorCode::ALL[5],
            };
            assert_eq!(listed_at_its_position, code, "ALL[{i}] is out of declaration order");
            let same_name = WireErrorCode::ALL.iter().filter(|c| c.name() == code.name());
            assert_eq!(same_name.count(), 1, "wire error name `{}` is not unique", code.name());

            let e = WireError::new(code, "context");
            let back: WireError = from_bytes(&to_bytes(&e)).unwrap();
            assert_eq!(back, e);
            assert!(e.to_string().contains(code.name()));
            // Only a shed request is safe to retry verbatim.
            assert_eq!(e.is_retryable(), code == WireErrorCode::Overloaded);
        }
        let crypto: WireError = CryptoError::NotInvertible.into();
        assert_eq!(crypto.code, WireErrorCode::Crypto);
        assert_eq!(WireError::unknown_frame(7).code, WireErrorCode::UnknownFrame);
        assert_eq!(WireError::overloaded("full").code, WireErrorCode::Overloaded);
    }

    #[test]
    fn ciphertext_bytes_dominate_message_size() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sectopk_crypto::paillier::{generate_keypair, MIN_MODULUS_BITS};
        let mut rng = StdRng::seed_from_u64(5);
        let (pk, _sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        let c = pk.encrypt_u64(9, &mut rng).unwrap();
        let encoded = to_bytes(&c);
        // Tag + varint length + raw bytes: framing overhead is a handful of bytes.
        assert!(encoded.len() >= c.byte_len());
        assert!(encoded.len() <= c.byte_len() + 4);
    }
}
