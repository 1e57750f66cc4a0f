//! Binary encoding of [`Value`]s and property lists.
//!
//! Shared by the engines that serialize records to bytes: the document
//! engine's binary documents, the cluster engine's record payloads, and the
//! columnar engine's cell values. The format is tag-prefixed:
//!
//! ```text
//! 0x00                      Null
//! 0x01 <u8>                 Bool
//! 0x02 <varint zigzag>      Int
//! 0x03 <8 bytes LE>         Float
//! 0x04 <varint len> <utf8>  Str
//! ```

use gm_model::Value;

use crate::codec::{read_varint, unzigzag, write_varint, zigzag};

/// Append the encoding of `v` to `out`.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0x00),
        Value::Bool(b) => {
            out.push(0x01);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(0x02);
            write_varint(out, zigzag(*i));
        }
        Value::Float(f) => {
            out.push(0x03);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(0x04);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Decode a value at `pos`, advancing it. `None` on malformed input.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Option<Value> {
    let tag = *buf.get(*pos)?;
    *pos += 1;
    match tag {
        0x00 => Some(Value::Null),
        0x01 => {
            let b = *buf.get(*pos)?;
            *pos += 1;
            Some(Value::Bool(b != 0))
        }
        0x02 => read_varint(buf, pos).map(|v| Value::Int(unzigzag(v))),
        0x03 => {
            let bytes = buf.get(*pos..*pos + 8)?;
            *pos += 8;
            Some(Value::Float(f64::from_le_bytes(bytes.try_into().ok()?)))
        }
        0x04 => {
            let len = read_varint(buf, pos)? as usize;
            let bytes = buf.get(*pos..*pos + len)?;
            *pos += len;
            Some(Value::Str(String::from_utf8(bytes.to_vec()).ok()?))
        }
        _ => None,
    }
}

/// Step over one encoded value at `pos` without decoding it. `None` on
/// malformed input.
pub fn skip_value(buf: &[u8], pos: &mut usize) -> Option<()> {
    let tag = *buf.get(*pos)?;
    *pos += 1;
    let len = match tag {
        0x00 => 0,
        0x01 => 1,
        0x02 => read_varint(buf, pos).map(|_| 0)?,
        0x03 => 8,
        0x04 => read_varint(buf, pos)? as usize,
        _ => return None,
    };
    let end = pos.checked_add(len).filter(|&end| end <= buf.len())?;
    *pos = end;
    Some(())
}

/// Append a `(name-id, value)` property list. Name ids come from the engine's
/// interner.
pub fn encode_props(out: &mut Vec<u8>, props: &[(u32, Value)]) {
    write_varint(out, props.len() as u64);
    for (name_id, v) in props {
        write_varint(out, *name_id as u64);
        encode_value(out, v);
    }
}

/// Decode a property list at `pos`, advancing it.
pub fn decode_props(buf: &[u8], pos: &mut usize) -> Option<Vec<(u32, Value)>> {
    let n = read_varint(buf, pos)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name_id = read_varint(buf, pos)? as u32;
        let v = decode_value(buf, pos)?;
        out.push((name_id, v));
    }
    Some(out)
}

/// Step over an encoded property list at `pos` without decoding it.
pub fn skip_props(buf: &[u8], pos: &mut usize) -> Option<()> {
    let n = read_varint(buf, pos)?;
    for _ in 0..n {
        read_varint(buf, pos)?;
        skip_value(buf, pos)?;
    }
    Some(())
}

/// The values an encoded property list holds under `name_id`, in list
/// order. Only those values are decoded; the others are stepped over.
pub fn prop_values(buf: &[u8], name_id: u32) -> impl Iterator<Item = Value> + '_ {
    let mut pos = 0usize;
    let mut left = read_varint(buf, &mut pos).unwrap_or(0);
    std::iter::from_fn(move || {
        while left > 0 {
            left -= 1;
            if read_varint(buf, &mut pos)? as u32 == name_id {
                return decode_value(buf, &mut pos);
            }
            skip_value(buf, &mut pos)?;
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let mut buf = Vec::new();
        encode_value(&mut buf, &v);
        let mut pos = 0;
        assert_eq!(decode_value(&buf, &mut pos), Some(v));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn value_round_trips() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        round_trip(Value::Int(0));
        round_trip(Value::Int(-1));
        round_trip(Value::Int(i64::MAX));
        round_trip(Value::Int(i64::MIN));
        round_trip(Value::Float(3.25));
        round_trip(Value::Float(-0.0));
        round_trip(Value::Str(String::new()));
        round_trip(Value::Str("snowman ☃".into()));
    }

    #[test]
    fn props_round_trip() {
        let props = vec![
            (0u32, Value::Str("ann".into())),
            (7, Value::Int(42)),
            (3, Value::Bool(false)),
        ];
        let mut buf = Vec::new();
        encode_props(&mut buf, &props);
        let mut pos = 0;
        assert_eq!(decode_props(&buf, &mut pos), Some(props));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn skipping_lands_where_decoding_does() {
        let props = vec![
            (0u32, Value::Str("ann".into())),
            (7, Value::Int(-42)),
            (3, Value::Float(0.5)),
            (7, Value::Bool(true)),
            (9, Value::Null),
        ];
        let mut buf = Vec::new();
        encode_props(&mut buf, &props);
        buf.push(0xAB);
        let mut pos = 0;
        assert_eq!(skip_props(&buf, &mut pos), Some(()));
        assert_eq!(pos, buf.len() - 1);
        let sevens: Vec<Value> = prop_values(&buf, 7).collect();
        assert_eq!(sevens, vec![Value::Int(-42), Value::Bool(true)]);
        assert_eq!(prop_values(&buf, 5).next(), None);
        // Truncated or overlong lengths are rejected, never overrun.
        let mut pos = 0;
        assert_eq!(skip_value(&[0x04, 0x05, b'a'], &mut pos), None);
        let mut pos = 0;
        assert_eq!(skip_value(&[0x03, 0, 0], &mut pos), None);
    }

    #[test]
    fn truncated_input_rejected() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::Str("hello".into()));
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert_eq!(decode_value(&buf, &mut pos), None);
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut pos = 0;
        assert_eq!(decode_value(&[0x77], &mut pos), None);
    }

    #[test]
    fn small_ints_encode_small() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::Int(3));
        assert_eq!(buf.len(), 2, "tag + 1 varint byte");
    }
}
