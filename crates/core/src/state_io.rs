//! A tiny hand-rolled binary codec for checkpointable runtime state.
//!
//! The serving daemon (`qdpm-serve`) periodically snapshots every mutable
//! piece of a running simulation — Q-tables, device/queue/timer state,
//! RNG streams, dispatcher cursors, budget accumulators — and must restore
//! them bit-exactly after a crash. The checkpoint format is written by
//! hand so its byte layout is fixed, which keeps the container's checksum
//! meaningful: little-endian fixed-width scalars appended to a
//! [`StateWriter`] and read back, bounds-checked, by a [`StateReader`].
//! Writers and readers must agree on field order; framing, versioning and
//! checksumming live one level up (in the checkpoint container), keeping
//! this codec a dumb byte shuttle.

use std::fmt;

/// Error produced by [`StateReader`] when a checkpoint payload does not
/// decode: truncated input or a field whose value cannot be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The payload ended before the requested field.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// A field decoded to a value the target cannot hold.
    BadValue(String),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Truncated { what } => {
                write!(f, "state payload truncated while reading {what}")
            }
            StateError::BadValue(msg) => write!(f, "bad state value: {msg}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Append-only little-endian encoder for checkpoint payloads.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        StateWriter::default()
    }

    /// Consumes the writer and returns the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (checkpoints are
    /// pointer-width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed byte blob.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian decoder over a checkpoint payload.
#[derive(Debug)]
pub struct StateReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Creates a reader over `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        StateReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StateError> {
        if self.remaining() < n {
            return Err(StateError::Truncated { what });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Truncated`] when the payload is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Truncated`] when the payload is exhausted.
    pub fn get_u32(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(
            self.take(4, "u32")?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Truncated`] when the payload is exhausted.
    pub fn get_u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(
            self.take(8, "u64")?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize` stored as a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Truncated`] on exhaustion or
    /// [`StateError::BadValue`] when the value exceeds this platform's
    /// `usize`.
    pub fn get_usize(&mut self) -> Result<usize, StateError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| StateError::BadValue(format!("usize field {v} too large")))
    }

    /// Reads an `f64` by its exact bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Truncated`] when the payload is exhausted.
    pub fn get_f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool (any nonzero byte is rejected rather than coerced).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Truncated`] on exhaustion or
    /// [`StateError::BadValue`] for a byte other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, StateError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StateError::BadValue(format!("bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed byte blob.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Truncated`] when the prefix or blob runs past
    /// the payload.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], StateError> {
        let len = self.get_usize()?;
        self.take(len, "byte blob")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_scalar_kinds() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_usize(42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(b"blob");
        w.put_str("text");
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"blob");
        assert_eq!(r.get_bytes().unwrap(), b"text");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut w = StateWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(r.get_u64().is_err());
        // A failed read consumes nothing.
        assert_eq!(r.get_u32().unwrap(), 1);
        assert!(matches!(
            r.get_u8().unwrap_err(),
            StateError::Truncated { .. }
        ));
    }

    #[test]
    fn bad_bool_and_oversized_blob_are_rejected() {
        let mut r = StateReader::new(&[2]);
        assert!(matches!(r.get_bool().unwrap_err(), StateError::BadValue(_)));
        let mut w = StateWriter::new();
        w.put_u64(1_000_000); // blob length prefix with no blob behind it
        let bytes = w.into_bytes();
        assert!(StateReader::new(&bytes).get_bytes().is_err());
    }
}
