//! Offline shim of the `bytes` crate (see `shims/README.md`).
//!
//! Provides [`Bytes`] (cheaply cloneable, sliceable, immutable byte buffer),
//! [`BytesMut`] (growable builder), and the [`Buf`] / [`BufMut`] trait subset
//! the prototype's wire format uses.  `Bytes` is an `Arc<Vec<u8>>` plus a
//! range, so `clone` and `advance` are O(1), datagram payload views never
//! copy, and a `Vec<u8>` (or a frozen [`BytesMut`]) becomes a `Bytes` by
//! moving its buffer, not copying it — the same properties the real crate
//! guarantees.

#![forbid(unsafe_code)]

use std::ops::Deref;
use std::sync::Arc;

/// Read-side cursor operations.
pub trait Buf {
    /// Number of bytes remaining.
    fn remaining(&self) -> usize;
    /// Advance the read cursor by `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cnt` exceeds [`Buf::remaining`].
    fn advance(&mut self, cnt: usize);
}

/// Write-side append operations.
pub trait BufMut {
    /// Append `src`.
    fn put_slice(&mut self, src: &[u8]);
    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
}

enum Inner {
    Shared(Arc<Vec<u8>>),
    Static(&'static [u8]),
}

impl Clone for Inner {
    fn clone(&self) -> Self {
        match self {
            Inner::Shared(a) => Inner::Shared(a.clone()),
            Inner::Static(s) => Inner::Static(s),
        }
    }
}

/// A cheaply cloneable immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    inner: Inner,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Wrap a static slice without allocating.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            start: 0,
            end: bytes.len(),
            inner: Inner::Static(bytes),
        }
    }

    /// Number of visible bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if no bytes are visible.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copy the visible bytes into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        match &self.inner {
            Inner::Shared(a) => &a[self.start..self.end],
            Inner::Static(s) => &s[self.start..self.end],
        }
    }

    /// O(1) sub-view covering `range` of the visible bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            inner: self.inner.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            start: 0,
            end: v.len(),
            inner: Inner::Shared(Arc::new(v)),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of Bytes");
        self.start += cnt;
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Convert into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_freeze_advance_roundtrip() {
        let mut b = BytesMut::with_capacity(8);
        b.put_slice(b"head");
        b.put_slice(b"tail");
        let mut frozen = b.freeze();
        assert_eq!(frozen.len(), 8);
        frozen.advance(4);
        assert_eq!(&frozen[..], b"tail");
        assert_eq!(frozen.remaining(), 4);
    }

    #[test]
    fn clone_is_view_not_copy() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        let mut b = a.clone();
        b.advance(2);
        assert_eq!(&a[..], &[1, 2, 3, 4]);
        assert_eq!(&b[..], &[3, 4]);
        assert_eq!(a.slice(1..3), Bytes::from(vec![2u8, 3]));
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn advance_past_end_panics() {
        let mut b = Bytes::from_static(b"xy");
        b.advance(3);
    }

    #[test]
    fn freeze_keeps_the_buffer_it_wrote() {
        let mut b = BytesMut::with_capacity(16);
        b.put_slice(b"payload");
        let written = b.as_ptr();
        let frozen = b.freeze();
        assert_eq!(frozen.as_ptr(), written, "freeze copied the bytes");
        let v = vec![7u8; 32];
        let moved = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), moved, "From<Vec<u8>> copied");
    }

    #[test]
    fn equality_across_sources() {
        assert_eq!(Bytes::from_static(b"abc"), Bytes::from(b"abc".to_vec()));
        assert!(Bytes::from_static(b"abc") == *b"abc".to_vec().as_slice());
    }
}
