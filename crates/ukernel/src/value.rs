//! The typed value ABI crossing component interfaces.
//!
//! When a VampOS component invokes another, the arguments are marshalled
//! into the message domain, and — for functions in the logged set — recorded
//! in the function-call log together with the return value. [`Value`] is
//! that marshalled form: a small algebraic type covering everything the nine
//! components exchange, including the host-protocol payloads 9PFS and NETDEV
//! forward to VIRTIO.

use std::fmt;

use vampos_host::{Frame, NinePRequest, NinePResponse};

use crate::error::OsError;

/// A marshalled argument or return value.
///
/// # Example
///
/// ```
/// use vampos_ukernel::Value;
///
/// let v = Value::U64(42);
/// assert_eq!(v.as_u64()?, 42);
/// assert!(v.as_str().is_err());
/// # Ok::<(), vampos_ukernel::OsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// No value.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer (offsets, whence, result codes).
    I64(i64),
    /// An unsigned integer (fds, pids, lengths, ports).
    U64(u64),
    /// A byte buffer (file/socket payloads).
    Bytes(Vec<u8>),
    /// A string (paths, names).
    Str(String),
    /// A heterogeneous list (multi-value returns, iovecs).
    List(Vec<Value>),
    /// A 9P request forwarded towards the virtio transport.
    NinePReq(NinePRequest),
    /// A 9P response coming back from the transport.
    NinePResp(NinePResponse),
    /// A network frame (present or absent, for RX polls).
    Frame(Option<Frame>),
}

impl Value {
    /// Extracts a `u64`.
    ///
    /// # Errors
    ///
    /// [`OsError::BadValue`] when the variant differs.
    pub fn as_u64(&self) -> Result<u64, OsError> {
        match self {
            Value::U64(v) => Ok(*v),
            other => Err(OsError::bad_value("u64", other)),
        }
    }

    /// Extracts an `i64`.
    ///
    /// # Errors
    ///
    /// [`OsError::BadValue`] when the variant differs.
    pub fn as_i64(&self) -> Result<i64, OsError> {
        match self {
            Value::I64(v) => Ok(*v),
            other => Err(OsError::bad_value("i64", other)),
        }
    }

    /// Extracts a boolean.
    ///
    /// # Errors
    ///
    /// [`OsError::BadValue`] when the variant differs.
    pub fn as_bool(&self) -> Result<bool, OsError> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(OsError::bad_value("bool", other)),
        }
    }

    /// Borrows the byte payload.
    ///
    /// # Errors
    ///
    /// [`OsError::BadValue`] when the variant differs.
    pub fn as_bytes(&self) -> Result<&[u8], OsError> {
        match self {
            Value::Bytes(v) => Ok(v),
            other => Err(OsError::bad_value("bytes", other)),
        }
    }

    /// Borrows the string payload.
    ///
    /// # Errors
    ///
    /// [`OsError::BadValue`] when the variant differs.
    pub fn as_str(&self) -> Result<&str, OsError> {
        match self {
            Value::Str(v) => Ok(v),
            other => Err(OsError::bad_value("str", other)),
        }
    }

    /// Borrows the list payload.
    ///
    /// # Errors
    ///
    /// [`OsError::BadValue`] when the variant differs.
    pub fn as_list(&self) -> Result<&[Value], OsError> {
        match self {
            Value::List(v) => Ok(v),
            other => Err(OsError::bad_value("list", other)),
        }
    }

    /// Moves the byte payload out: a caller that owns the value (a downcall's
    /// return) takes the buffer instead of copying it.
    ///
    /// # Errors
    ///
    /// [`OsError::BadValue`] when the variant differs.
    pub fn into_bytes(self) -> Result<Vec<u8>, OsError> {
        match self {
            Value::Bytes(v) => Ok(v),
            other => Err(OsError::bad_value("bytes", &other)),
        }
    }

    /// Moves the list payload out, like [`Value::into_bytes`].
    ///
    /// # Errors
    ///
    /// [`OsError::BadValue`] when the variant differs.
    pub fn into_list(self) -> Result<Vec<Value>, OsError> {
        match self {
            Value::List(v) => Ok(v),
            other => Err(OsError::bad_value("list", &other)),
        }
    }

    /// Takes the optional frame.
    ///
    /// # Errors
    ///
    /// [`OsError::BadValue`] when the variant differs.
    pub fn as_frame(&self) -> Result<Option<&Frame>, OsError> {
        match self {
            Value::Frame(v) => Ok(v.as_ref()),
            other => Err(OsError::bad_value("frame", other)),
        }
    }

    /// Short variant name (used in error messages and logs).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::I64(_) => "i64",
            Value::U64(_) => "u64",
            Value::Bytes(_) => "bytes",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::NinePReq(_) => "9p-request",
            Value::NinePResp(_) => "9p-response",
            Value::Frame(_) => "frame",
        }
    }

    /// Approximate marshalled size in bytes, used by the cost model for
    /// message copies and by the log for space accounting.
    pub fn byte_len(&self) -> usize {
        match self {
            Value::Unit => 1,
            Value::Bool(_) => 1,
            Value::I64(_) | Value::U64(_) => 8,
            Value::Bytes(b) => 8 + b.len(),
            Value::Str(s) => 8 + s.len(),
            Value::List(items) => 8 + items.iter().map(Value::byte_len).sum::<usize>(),
            Value::NinePReq(req) => {
                16 + match req {
                    NinePRequest::Write { data, .. } => data.len(),
                    NinePRequest::Walk { names, .. } => {
                        names.iter().map(String::len).sum::<usize>()
                    }
                    NinePRequest::Create { name, .. } | NinePRequest::Mkdir { name, .. } => {
                        name.len()
                    }
                    _ => 0,
                }
            }
            Value::NinePResp(resp) => {
                16 + match resp {
                    NinePResponse::Data(d) => d.len(),
                    _ => 0,
                }
            }
            Value::Frame(f) => 8 + f.as_ref().map_or(0, Frame::wire_len),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("()"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(items) => write!(f, "list[{}]", items.len()),
            Value::NinePReq(_) => f.write_str("<9p-req>"),
            Value::NinePResp(_) => f.write_str("<9p-resp>"),
            Value::Frame(Some(fr)) => write!(f, "frame[{}B]", fr.wire_len()),
            Value::Frame(None) => f.write_str("frame[none]"),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Value::Bytes(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_host::{Fid, TcpFlags};

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::U64(7).as_u64().unwrap(), 7);
        assert_eq!(Value::I64(-3).as_i64().unwrap(), -3);
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::from("hi").as_str().unwrap(), "hi");
        assert_eq!(Value::from(vec![1u8, 2]).as_bytes().unwrap(), &[1, 2]);
        let list = Value::List(vec![Value::Unit]);
        assert_eq!(list.as_list().unwrap().len(), 1);
    }

    #[test]
    fn wrong_variant_is_bad_value() {
        let err = Value::Unit.as_u64().unwrap_err();
        assert!(err.to_string().contains("expected u64"));
    }

    #[test]
    fn into_accessors_move_the_payload_out() {
        let bytes = vec![1u8, 2, 3];
        let at = bytes.as_ptr();
        let moved = Value::Bytes(bytes).into_bytes().unwrap();
        assert_eq!(moved, [1, 2, 3]);
        assert_eq!(moved.as_ptr(), at, "into_bytes copied the buffer");

        let list = vec![Value::U64(7), Value::Unit];
        let at = list.as_ptr();
        let moved = Value::List(list).into_list().unwrap();
        assert_eq!(moved, [Value::U64(7), Value::Unit]);
        assert_eq!(moved.as_ptr(), at, "into_list copied the list");
    }

    #[test]
    fn into_accessors_reject_the_wrong_variant() {
        let err = Value::U64(1).into_bytes().unwrap_err();
        assert_eq!(
            err,
            OsError::BadValue {
                expected: "bytes".into(),
                got: "u64".into(),
            }
        );
        let err = Value::from(vec![1u8]).into_list().unwrap_err();
        assert_eq!(err.to_string(), "expected list value, got bytes");
    }

    #[test]
    fn byte_len_tracks_payload_size() {
        assert!(Value::Bytes(vec![0; 100]).byte_len() >= 100);
        assert!(Value::Unit.byte_len() < Value::from("hello world").byte_len());
        let req = Value::NinePReq(NinePRequest::Write {
            fid: Fid(1),
            offset: 0,
            data: vec![0; 64],
        });
        assert!(req.byte_len() >= 64);
    }

    #[test]
    fn frame_accessor_handles_both_cases() {
        assert_eq!(Value::Frame(None).as_frame().unwrap(), None);
        let f = Frame {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            payload: vec![1],
        };
        let v = Value::Frame(Some(f.clone()));
        assert_eq!(v.as_frame().unwrap(), Some(&f));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Bytes(vec![0; 3]).to_string(), "bytes[3]");
        assert_eq!(Value::from("x").to_string(), "\"x\"");
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(Value::Unit.kind(), "unit");
        assert_eq!(Value::Frame(None).kind(), "frame");
    }
}
