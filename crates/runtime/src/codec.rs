//! Wire encoding of values and messages.
//!
//! §5: "The run-time system for ActorSpace will support heterogeneity by
//! selecting transport protocols and data representation formats at
//! run-time." Transport selection is the [`Transport`](crate::Transport)
//! trait; this module is the data-representation half: a compact,
//! self-describing binary format for [`Value`] and [`Message`]. The
//! simulated cluster encodes every message onto the wire and decodes it on
//! arrival, so cross-node payloads genuinely round-trip through bytes.
//!
//! Format: one tag byte per value, little-endian fixed-width scalars,
//! u32-length-prefixed strings and lists. Atoms travel as their text
//! (interner ids are process-local). Capabilities travel as raw key bits
//! plus a rights byte — they are "communicated in messages" by design
//! (§5.4), and the wire is inside the trust domain.
//!
//! Lists may nest at most [`MAX_NESTING`] deep. The decoder recurses once
//! per list, so without a bound a few hundred kilobytes of bare list
//! headers would overflow the stack; deeper input is rejected with
//! [`DecodeError::TooDeep`]. Decoding never panics on any input. The
//! encoder does not check depth; a sender that puts values on the wire
//! checks [`nesting_fits`] first, so a too-deep message is refused where
//! it is sent instead of being dropped where it arrives.

use std::sync::Arc;

use actorspace_capability::{CapKey, Capability, Rights};
use actorspace_core::{ActorId, SpaceId};

use crate::message::{Message, Port};
use crate::value::Value;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended mid-value.
    Truncated,
    /// An unknown tag byte.
    BadTag(u8),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes after the decoded value.
    TrailingBytes(usize),
    /// Lists nested deeper than [`MAX_NESTING`].
    TooDeep,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            DecodeError::TooDeep => write!(f, "lists nested deeper than {MAX_NESTING}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const T_UNIT: u8 = 0x00;
const T_FALSE: u8 = 0x01;
const T_TRUE: u8 = 0x02;
const T_INT: u8 = 0x03;
const T_FLOAT: u8 = 0x04;
const T_STR: u8 = 0x05;
const T_ATOM: u8 = 0x06;
const T_ADDR: u8 = 0x07;
const T_SPACE: u8 = 0x08;
const T_CAP: u8 = 0x09;
const T_LIST: u8 = 0x0a;

/// The deepest list nesting the decoder accepts: a value may sit inside at
/// most this many lists.
pub const MAX_NESTING: usize = 128;

/// Encodes a value, appending to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Unit => out.push(T_UNIT),
        Value::Bool(false) => out.push(T_FALSE),
        Value::Bool(true) => out.push(T_TRUE),
        Value::Int(i) => {
            out.push(T_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(T_FLOAT);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(T_STR);
            put_bytes(s.as_bytes(), out);
        }
        Value::Atom(a) => {
            out.push(T_ATOM);
            put_bytes(a.as_str().as_bytes(), out);
        }
        Value::Addr(a) => {
            out.push(T_ADDR);
            out.extend_from_slice(&a.0.to_le_bytes());
        }
        Value::Space(s) => {
            out.push(T_SPACE);
            out.extend_from_slice(&s.0.to_le_bytes());
        }
        Value::Cap(c) => {
            out.push(T_CAP);
            out.extend_from_slice(&c.key().to_bits().to_le_bytes());
            out.push(rights_bits(c.rights()));
        }
        Value::List(items) => {
            out.push(T_LIST);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items.iter() {
                encode_value(item, out);
            }
        }
    }
}

/// Does `v` nest lists at most [`MAX_NESTING`] deep, so that its encoding
/// decodes? Looks no deeper than one level past the limit.
pub fn nesting_fits(v: &Value) -> bool {
    fn fits(v: &Value, lists_left: usize) -> bool {
        match v {
            Value::List(items) => lists_left > 0 && items.iter().all(|x| fits(x, lists_left - 1)),
            _ => true,
        }
    }
    fits(v, MAX_NESTING)
}

/// Encodes a value into a fresh buffer.
pub fn value_to_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_value(v, &mut out);
    out
}

fn put_bytes(b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn rights_bits(r: Rights) -> u8 {
    let mut b = 0u8;
    if r.covers(Rights::VISIBILITY) {
        b |= 1;
    }
    if r.covers(Rights::ATTRIBUTES) {
        b |= 2;
    }
    if r.covers(Rights::MANAGE) {
        b |= 4;
    }
    b
}

fn rights_from_bits(b: u8) -> Rights {
    let mut r = Rights::NONE;
    if b & 1 != 0 {
        r = r | Rights::VISIBILITY;
    }
    if b & 2 != 0 {
        r = r | Rights::ATTRIBUTES;
    }
    if b & 4 != 0 {
        r = r | Rights::MANAGE;
    }
    r
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.at + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }

    fn str(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError::BadUtf8)
    }
}

/// Decodes one value that sits inside `lists` enclosing lists.
fn decode_inner(r: &mut Reader<'_>, lists: usize) -> Result<Value, DecodeError> {
    match r.u8()? {
        T_UNIT => Ok(Value::Unit),
        T_FALSE => Ok(Value::Bool(false)),
        T_TRUE => Ok(Value::Bool(true)),
        T_INT => Ok(Value::Int(r.i64()?)),
        T_FLOAT => Ok(Value::Float(f64::from_le_bytes(
            r.take(8)?.try_into().expect("8 bytes"),
        ))),
        T_STR => Ok(Value::str(r.str()?)),
        T_ATOM => Ok(Value::atom(r.str()?)),
        T_ADDR => Ok(Value::Addr(ActorId(r.u64()?))),
        T_SPACE => Ok(Value::Space(SpaceId(r.u64()?))),
        T_CAP => {
            let key = CapKey::from_bits(r.u128()?);
            let rights = rights_from_bits(r.u8()?);
            Ok(Value::Cap(Capability::from_parts(key, rights)))
        }
        T_LIST => {
            if lists == MAX_NESTING {
                return Err(DecodeError::TooDeep);
            }
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_inner(r, lists + 1)?);
            }
            Ok(Value::List(Arc::new(items)))
        }
        t => Err(DecodeError::BadTag(t)),
    }
}

/// Decodes a single value from `bytes`, requiring full consumption.
pub fn decode_value(bytes: &[u8]) -> Result<Value, DecodeError> {
    let mut r = Reader { buf: bytes, at: 0 };
    let v = decode_inner(&mut r, 0)?;
    if r.at != bytes.len() {
        return Err(DecodeError::TrailingBytes(bytes.len() - r.at));
    }
    Ok(v)
}

/// Encodes a message (port + sender + body).
pub fn encode_message(m: &Message, out: &mut Vec<u8>) {
    out.push(match m.port {
        Port::Behavior => 0,
        Port::Rpc => 1,
        Port::Invocation => 2,
    });
    match m.from {
        None => out.push(0),
        Some(a) => {
            out.push(1);
            out.extend_from_slice(&a.0.to_le_bytes());
        }
    }
    encode_value(&m.body, out);
}

/// Encodes a message into a fresh buffer.
pub fn message_to_bytes(m: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    encode_message(m, &mut out);
    out
}

/// Decodes a message, requiring full consumption.
pub fn decode_message(bytes: &[u8]) -> Result<Message, DecodeError> {
    let mut r = Reader { buf: bytes, at: 0 };
    let port = match r.u8()? {
        0 => Port::Behavior,
        1 => Port::Rpc,
        2 => Port::Invocation,
        t => return Err(DecodeError::BadTag(t)),
    };
    let from = match r.u8()? {
        0 => None,
        1 => Some(ActorId(r.u64()?)),
        t => return Err(DecodeError::BadTag(t)),
    };
    let body = decode_inner(&mut r, 0)?;
    if r.at != bytes.len() {
        return Err(DecodeError::TrailingBytes(bytes.len() - r.at));
    }
    Ok(Message { from, body, port })
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorspace_capability::CapMinter;

    fn round_trip(v: &Value) -> Value {
        decode_value(&value_to_bytes(v)).expect("round trip")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Unit,
            Value::Bool(true),
            Value::Bool(false),
            Value::int(0),
            Value::int(i64::MIN),
            Value::int(i64::MAX),
            Value::Float(3.25),
            Value::Float(f64::NEG_INFINITY),
            Value::str(""),
            Value::str("héllo → wörld"),
            Value::atom("srv/fib"),
            Value::Addr(ActorId(u64::MAX)),
            Value::Space(SpaceId(7)),
        ] {
            assert_eq!(round_trip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn nan_floats_round_trip_bitwise() {
        let v = Value::Float(f64::NAN);
        let got = round_trip(&v);
        match got {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn capabilities_round_trip_with_rights() {
        let cap = CapMinter::new().new_capability();
        let weak = cap.restrict(Rights::VISIBILITY | Rights::ATTRIBUTES);
        for c in [cap, weak] {
            let got = round_trip(&Value::Cap(c));
            let rc = got.as_cap().expect("cap variant");
            assert_eq!(rc.key(), c.key());
            assert_eq!(rc.rights(), c.rights());
        }
    }

    #[test]
    fn nested_lists_round_trip() {
        let v = Value::list([
            Value::int(1),
            Value::list([Value::str("x"), Value::list([Value::Unit])]),
            Value::atom("deep/path"),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn messages_round_trip() {
        for m in [
            Message::new(Value::int(5)),
            Message::from_sender(ActorId(9), Value::str("hello")),
            Message::rpc(
                Some(ActorId(1)),
                Value::list([Value::int(1), Value::int(2)]),
            ),
        ] {
            let bytes = message_to_bytes(&m);
            let got = decode_message(&bytes).unwrap();
            assert_eq!(got.from, m.from);
            assert_eq!(got.port, m.port);
            assert_eq!(got.body, m.body);
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert_eq!(decode_value(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode_value(&[0xff]), Err(DecodeError::BadTag(0xff)));
        assert_eq!(decode_value(&[T_INT, 1, 2]), Err(DecodeError::Truncated));
        // Valid unit + junk.
        assert_eq!(
            decode_value(&[T_UNIT, 0]),
            Err(DecodeError::TrailingBytes(1))
        );
        // Bad UTF-8 in a string.
        let mut bad = vec![T_STR];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(decode_value(&bad), Err(DecodeError::BadUtf8));
        // List claiming more items than present.
        let mut short = vec![T_LIST];
        short.extend_from_slice(&3u32.to_le_bytes());
        short.push(T_UNIT);
        assert_eq!(decode_value(&short), Err(DecodeError::Truncated));
    }
}
