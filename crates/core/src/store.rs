//! Where a [`PeelingDecoder`](crate::PeelingDecoder) keeps the values of the
//! packets it holds.
//!
//! The decoder decides *which* packets are held — one bit per packet, the
//! same for every symbol type — and a store keeps their values, addressed by
//! global encoding index.  The symbol type chooses the store
//! ([`Symbol::Store`]):
//!
//! * payloads (`Vec<u8>`) live in a [`Slab`]: the source rows in one buffer
//!   laid out as the file, the check rows in a second one.  A receiver
//!   therefore holds one file plus the check rows its decode needed, and the
//!   finished file *is* the source buffer
//!   ([`PeelingDecoder::take_file`](crate::PeelingDecoder::take_file));
//! * the index-only [`Mark`](crate::Mark) keeps nothing ([`NoValues`]);
//! * any other symbol keeps one value per packet ([`PerValue`]).
//!
//! A store knows packets and rows, not the peeling schedule: it is told to
//! keep a value, to lend one, and to build one as the XOR of others.  Any
//! decoder over a cascade's packets can keep its values in one.

use crate::cascade::{Cascade, FinalCode};
use crate::error::{Result, TornadoError};
use crate::symbol::Symbol;
use df_gf::field::xor_slice;
use std::borrow::Borrow;
use std::fmt::Debug;
use std::ops::Range;

/// The values of the packets a decoder holds.
pub trait SymbolStore<S: Symbol>: Clone + Debug {
    /// A store for `cascade`'s packets that holds nothing and has allocated
    /// nothing.
    fn empty(cascade: &Cascade) -> Self;

    /// Keep a copy of `value` as the value of packet `g`, which is not held.
    ///
    /// # Errors
    ///
    /// [`TornadoError::MalformedInput`] when `value` cannot be packet `g`'s
    /// (a [`Slab`] row of another length than the packets already kept).
    fn insert(&mut self, g: usize, value: &S::Row) -> Result<()>;

    /// [`Self::insert`], handing the store the value itself; a store that
    /// keeps values whole keeps it without a copy.
    ///
    /// # Errors
    ///
    /// As [`Self::insert`].
    fn insert_owned(&mut self, g: usize, value: S) -> Result<()> {
        self.insert(g, as_row::<S::Row>(&value))
    }

    /// The value of held packet `g`.
    fn row(&self, g: usize) -> &S::Row;

    /// Make the value of packet `dst`, which is not held, the XOR of the
    /// values of held packets `srcs` — at least one, and none of them `dst`.
    fn combine(&mut self, dst: usize, srcs: impl Iterator<Item = usize>);

    /// Let go of every value.
    fn clear(&mut self);
}

/// A symbol lent as its row (`&Vec<u8>` as `&[u8]`).
fn as_row<R: ?Sized + ToOwned>(value: &R::Owned) -> &R {
    value.borrow()
}

/// A store that keeps no values: the index-only decoder's.
#[derive(Debug, Clone, Copy)]
pub struct NoValues;

impl SymbolStore<crate::Mark> for NoValues {
    fn empty(_cascade: &Cascade) -> Self {
        NoValues
    }

    fn insert(&mut self, _g: usize, _value: &crate::Mark) -> Result<()> {
        Ok(())
    }

    fn row(&self, _g: usize) -> &crate::Mark {
        &crate::Mark
    }

    fn combine(&mut self, _dst: usize, _srcs: impl Iterator<Item = usize>) {}

    fn clear(&mut self) {}
}

/// One value per packet, for any [`Symbol`] without a store of its own.
#[derive(Clone)]
pub struct PerValue<S> {
    values: Vec<Option<S>>,
}

impl<S> Debug for PerValue<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.values.iter().filter(|v| v.is_some()).count();
        f.debug_struct("PerValue").field("held", &held).finish()
    }
}

impl<S: Symbol> SymbolStore<S> for PerValue<S> {
    fn empty(_cascade: &Cascade) -> Self {
        PerValue { values: Vec::new() }
    }

    fn insert(&mut self, g: usize, value: &S::Row) -> Result<()> {
        self.insert_owned(g, value.to_owned())
    }

    fn insert_owned(&mut self, g: usize, value: S) -> Result<()> {
        self.put(g, value);
        Ok(())
    }

    fn row(&self, g: usize) -> &S::Row {
        as_row::<S::Row>(self.values[g].as_ref().expect("held packets have values"))
    }

    fn combine(&mut self, dst: usize, mut srcs: impl Iterator<Item = usize>) {
        let value = |g: usize| self.values[g].as_ref().expect("held packets have values");
        let mut combined = value(srcs.next().expect("at least one source")).clone();
        for g in srcs {
            combined.xor(value(g));
        }
        self.put(dst, combined);
    }

    fn clear(&mut self) {
        self.values = Vec::new();
    }
}

impl<S: Clone> PerValue<S> {
    fn put(&mut self, g: usize, value: S) {
        if self.values.len() <= g {
            self.values.resize(g + 1, None);
        }
        self.values[g] = Some(value);
    }
}

/// The two buffers of a [`Slab`].
#[derive(Debug, Clone, Copy)]
enum Buffer {
    Source,
    Checks,
}

/// Marks a check packet that has no row in a [`Slab`]'s check buffer.
const NO_SLOT: u32 = u32::MAX;

/// Payload rows in two buffers instead of one allocation per packet.
///
/// * **Source rows** (packets `0..k`) live in one buffer of `k × P` bytes
///   laid out as the file: row `i` at `i·P`.  It is reserved — not written —
///   at the first row kept, filled by appending while source rows arrive in
///   order, and zero-filled to its full length only at the first source row
///   that arrives out of order.  A complete decode leaves the file's packets
///   in it, in order, and hands the buffer over as the file
///   ([`PeelingDecoder::take_file`](crate::PeelingDecoder::take_file)).
/// * **Check rows** (packets `k..n`) are appended, in the order they are
///   received or built, to a second buffer of slots as wide as the widest
///   check row (`P`, or `P + 2` for a GF(2^16) final block at an odd `P`),
///   found through a slot index over the `n − k` check packets.  Both are
///   allocated at the first check row: a reception that never needs one
///   never allocates them.
///
/// `P` is the packet size, taken from the first row kept; every later row
/// must have the length that implies for its packet.  `k` and `P` come off
/// the wire, so the `k × P` reservation may be more than the allocator can
/// give: then the first row is refused ([`TornadoError::MalformedInput`]),
/// and nothing is kept, rather than the process aborting.
#[derive(Debug, Clone)]
pub struct Slab {
    k: usize,
    n: usize,
    /// First final-block check packet: from here on rows may be wider.
    rs_offset: usize,
    /// Whether the final block is a GF(2^16) code, whose check rows carry two
    /// extra bytes at odd packet sizes (see [`FinalCode`]).
    gf16_final: bool,
    packet_size: Option<usize>,
    source: Vec<u8>,
    checks: Vec<u8>,
    /// Slot of check packet `g` in `checks`, at `g − k`.
    slots: Vec<u32>,
}

impl SymbolStore<Vec<u8>> for Slab {
    fn empty(cascade: &Cascade) -> Self {
        Slab {
            k: cascade.k(),
            n: cascade.n(),
            rs_offset: cascade.rs_offset(),
            gf16_final: matches!(cascade.final_code(), FinalCode::Large(_)),
            packet_size: None,
            source: Vec::new(),
            checks: Vec::new(),
            slots: Vec::new(),
        }
    }

    fn insert(&mut self, g: usize, value: &[u8]) -> Result<()> {
        let p = self.packet_size_from(g, value.len())?;
        if value.len() != self.width(p, g) {
            return Err(TornadoError::MalformedInput {
                reason: format!(
                    "packet {g} has {} bytes, expected {} at packet size {p}",
                    value.len(),
                    self.width(p, g)
                ),
            });
        }
        if g < self.k && g * p == self.source.len() {
            // The next source row in order: the buffer grows by exactly it.
            self.source.extend_from_slice(value);
        } else {
            let (buffer, range) = self.place(g);
            self.buffer_mut(buffer)[range].copy_from_slice(value);
        }
        Ok(())
    }

    fn row(&self, g: usize) -> &[u8] {
        let (buffer, range) = self.locate(g);
        &self.buffer(buffer)[range]
    }

    fn combine(&mut self, dst: usize, mut srcs: impl Iterator<Item = usize>) {
        let dst = self.place(dst);
        let first = srcs.next().expect("at least one source");
        self.apply(&dst, first, <[u8]>::copy_from_slice);
        for g in srcs {
            self.apply(&dst, g, xor_slice);
        }
    }

    fn clear(&mut self) {
        self.source = Vec::new();
        self.checks = Vec::new();
        self.slots = Vec::new();
    }
}

impl Slab {
    /// Take the source buffer out of the slab, truncated to `file_len`
    /// bytes, and let go of the check rows.  Once the decoder that fills the
    /// slab is complete this is the file's packets, in order; `None` while
    /// the buffer is shorter than `k` rows or `file_len` longer.
    pub(crate) fn take_source(&mut self, file_len: usize) -> Option<Vec<u8>> {
        let whole = self.k * self.packet_size?;
        if self.source.len() != whole || file_len > whole {
            return None;
        }
        let mut file = std::mem::take(&mut self.source);
        file.truncate(file_len);
        self.clear();
        Some(file)
    }

    /// Learn the packet size and reserve, without touching, the source
    /// buffer's `k × P` bytes, so that no source row ever moves.
    fn set_packet_size(&mut self, packet_size: usize) -> Result<()> {
        let refused = |why: String| TornadoError::MalformedInput {
            reason: format!(
                "{} source rows of {packet_size} bytes cannot be reserved: {why}",
                self.k
            ),
        };
        let whole = self
            .k
            .checked_mul(packet_size)
            .ok_or_else(|| refused("the size overflows".into()))?;
        self.source
            .try_reserve_exact(whole)
            .map_err(|e| refused(e.to_string()))?;
        self.packet_size = Some(packet_size);
        Ok(())
    }

    /// The packet size, taken from packet `g`'s `len` bytes if the slab does
    /// not know it yet (see [`Self::set_packet_size`]).
    fn packet_size_from(&mut self, g: usize, len: usize) -> Result<usize> {
        if let Some(p) = self.packet_size {
            return Ok(p);
        }
        let p = if self.padded_check(g) && len % 2 == 1 {
            len.checked_sub(2)
                .ok_or_else(|| TornadoError::MalformedInput {
                    reason: format!("final-block check packet {g} has {len} bytes"),
                })?
        } else {
            len
        };
        self.set_packet_size(p)?;
        Ok(p)
    }

    /// Whether packet `g` is a GF(2^16) final-block check, the one row that
    /// may be wider than `P`.
    fn padded_check(&self, g: usize) -> bool {
        self.gf16_final && g >= self.rs_offset
    }

    /// The length of packet `g`'s row at packet size `p`.
    fn width(&self, p: usize, g: usize) -> usize {
        if self.padded_check(g) && p % 2 == 1 {
            p + 2
        } else {
            p
        }
    }

    /// The packet size, which is known once any row has been kept.
    fn p(&self) -> usize {
        self.packet_size.expect("a row was kept before any is read")
    }

    /// Width of a slot in `checks`: the widest check row.
    fn stride(&self) -> usize {
        self.width(self.p(), self.rs_offset)
    }

    fn buffer(&self, buffer: Buffer) -> &Vec<u8> {
        match buffer {
            Buffer::Source => &self.source,
            Buffer::Checks => &self.checks,
        }
    }

    fn buffer_mut(&mut self, buffer: Buffer) -> &mut Vec<u8> {
        match buffer {
            Buffer::Source => &mut self.source,
            Buffer::Checks => &mut self.checks,
        }
    }

    /// Where the row of kept packet `g` is.
    fn locate(&self, g: usize) -> (Buffer, Range<usize>) {
        let p = self.p();
        if g < self.k {
            return (Buffer::Source, g * p..(g + 1) * p);
        }
        let slot = self.slots[g - self.k];
        debug_assert_ne!(slot, NO_SLOT, "packet {g} has no row");
        let start = slot as usize * self.stride();
        (Buffer::Checks, start..start + self.width(p, g))
    }

    /// Make room for the row of packet `g`, which has none, and say where it
    /// is.  The first source row out of order zero-fills the source buffer
    /// to its full length; a check row takes the next slot.
    fn place(&mut self, g: usize) -> (Buffer, Range<usize>) {
        let p = self.p();
        if g < self.k {
            if g * p == self.source.len() {
                self.source.resize((g + 1) * p, 0);
            } else if self.source.len() < self.k * p {
                self.source.resize(self.k * p, 0);
            }
            return (Buffer::Source, g * p..(g + 1) * p);
        }
        if self.slots.is_empty() {
            self.slots = vec![NO_SLOT; self.n - self.k];
        }
        let stride = self.stride();
        let slot = self.checks.len() / stride.max(1);
        self.checks.resize(self.checks.len() + stride, 0);
        self.slots[g - self.k] = u32::try_from(slot).expect("at most n − k < 2^32 check rows");
        self.locate(g)
    }

    /// `row(dst) = op(row(dst), row(src))` for two distinct rows.
    fn apply(&mut self, dst: &(Buffer, Range<usize>), src: usize, op: fn(&mut [u8], &[u8])) {
        let (src_buffer, src) = self.locate(src);
        let (to, from): (&mut [u8], &[u8]) = match (dst.0, src_buffer) {
            (Buffer::Source, Buffer::Checks) => {
                (&mut self.source[dst.1.clone()], &self.checks[src])
            }
            (Buffer::Checks, Buffer::Source) => {
                (&mut self.checks[dst.1.clone()], &self.source[src])
            }
            (buffer, _) => two_rows(self.buffer_mut(buffer), dst.1.clone(), src),
        };
        op(to, from);
    }
}

/// Row `dst` to write and row `src` to read, two disjoint ranges of one
/// buffer.
fn two_rows(buffer: &mut [u8], dst: Range<usize>, src: Range<usize>) -> (&mut [u8], &[u8]) {
    debug_assert!(dst.end <= src.start || src.end <= dst.start, "rows overlap");
    if dst.start < src.start {
        let (low, high) = buffer.split_at_mut(src.start);
        (&mut low[dst], &high[..src.len()])
    } else {
        let (low, high) = buffer.split_at_mut(dst.start);
        (&mut high[..dst.len()], &low[src])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{TORNADO_A, TORNADO_B};

    fn empty(cascade: &Cascade) -> Slab {
        <Slab as SymbolStore<Vec<u8>>>::empty(cascade)
    }

    #[test]
    fn in_order_source_rows_append_and_the_file_is_the_buffer() {
        let cascade = Cascade::build(40, TORNADO_A, 1).unwrap();
        let mut slab = empty(&cascade);
        assert_eq!(slab.source.capacity(), 0, "nothing before the first row");
        slab.insert(0, &[0; 3]).unwrap();
        let reserved = slab.source.as_ptr();
        assert!(slab.source.capacity() >= 120, "the first row reserves k·P");
        for g in 1..40 {
            slab.insert(g, &[g as u8; 3]).unwrap();
            assert_eq!(slab.source.len(), 3 * (g + 1), "no zero-fill in order");
        }
        assert!(slab.checks.is_empty() && slab.slots.is_empty());
        let file = slab.take_source(118).unwrap();
        assert_eq!(file.as_ptr(), reserved, "the file is the reserved buffer");
        assert_eq!(file.len(), 118);
        assert_eq!(&file[114..], &[38, 38, 38, 39]);
    }

    #[test]
    fn an_out_of_order_source_row_zero_fills_once() {
        let cascade = Cascade::build(40, TORNADO_A, 1).unwrap();
        let mut slab = empty(&cascade);
        slab.insert(5, &[7, 7]).unwrap();
        assert_eq!(slab.source.len(), 80);
        assert_eq!(slab.row(5), &[7, 7]);
        slab.insert(0, &[1, 2]).unwrap();
        assert_eq!(slab.source.len(), 80);
        assert_eq!(
            slab.take_source(80),
            Some(slab_file(&[(0, [1, 2]), (5, [7, 7])]))
        );
        assert_eq!(slab.take_source(80), None, "taken once");
    }

    fn slab_file(rows: &[(usize, [u8; 2])]) -> Vec<u8> {
        let mut file = vec![0u8; 80];
        for (g, row) in rows {
            file[2 * g..2 * g + 2].copy_from_slice(row);
        }
        file
    }

    #[test]
    fn check_rows_take_slots_and_combine_across_buffers() {
        let cascade = Cascade::build(40, TORNADO_A, 1).unwrap();
        let (k, n) = (cascade.k(), cascade.n());
        let mut slab = empty(&cascade);
        slab.insert(n - 1, &[1, 2]).unwrap();
        slab.insert(k, &[4, 8]).unwrap();
        assert_eq!(slab.slots.len(), n - k);
        assert_eq!(
            (slab.row(k), slab.row(n - 1)),
            (&[4u8, 8][..], &[1u8, 2][..])
        );
        // A check row built from a check row, a source row from two.
        slab.combine(k + 1, [k].into_iter());
        slab.combine(3, [k + 1, n - 1].into_iter());
        assert_eq!(slab.row(3), &[5, 10]);
        slab.combine(k + 2, [3, n - 1].into_iter());
        assert_eq!(slab.row(k + 2), &[4, 8]);
        assert_eq!(slab.source.len(), 80, "row 3 came out of order");
    }

    #[test]
    fn gf16_check_rows_are_two_bytes_wider_at_odd_packet_sizes() {
        let cascade = Cascade::build(4000, TORNADO_B, 7).unwrap();
        assert!(matches!(cascade.final_code(), FinalCode::Large(_)));
        let rs = cascade.rs_offset();
        // Learned from a final-block check row: 9 bytes at an odd size is 7.
        let mut slab = empty(&cascade);
        slab.insert(rs, &[3; 9]).unwrap();
        assert_eq!(slab.packet_size, Some(7));
        slab.insert(rs - 1, &[5; 7]).unwrap();
        assert_eq!((slab.row(rs).len(), slab.row(rs - 1).len()), (9, 7));
        for (g, len) in [(0, 9), (rs + 1, 7), (cascade.k(), 8)] {
            assert!(matches!(
                slab.insert(g, &vec![0; len]),
                Err(TornadoError::MalformedInput { .. })
            ));
        }
        // An even-length check row is the packet size itself.
        let mut even = empty(&cascade);
        even.insert(rs, &[1; 8]).unwrap();
        assert_eq!(even.packet_size, Some(8));
        assert!(SymbolStore::<Vec<u8>>::insert(&mut even, rs + 1, &[0; 1]).is_err());
    }

    #[test]
    #[cfg_attr(miri, ignore = "asks the allocator for an exabyte")]
    fn a_reservation_the_allocator_refuses_is_an_error_not_an_abort() {
        let cascade = Cascade::build(40, TORNADO_A, 1).unwrap();
        // 2^50 source rows of 1 KiB: more than any address space holds, and
        // then a product that overflows.
        for k in [1 << 50, usize::MAX / 512] {
            let mut slab = empty(&cascade);
            slab.k = k;
            assert!(matches!(
                slab.insert(0, &[0; 1024]),
                Err(TornadoError::MalformedInput { .. })
            ));
            assert_eq!((slab.packet_size, slab.source.capacity()), (None, 0));
        }
    }

    #[test]
    fn a_cleared_slab_holds_nothing() {
        let cascade = Cascade::build(40, TORNADO_A, 1).unwrap();
        let mut slab = empty(&cascade);
        slab.insert(cascade.k(), &[1; 4]).unwrap();
        slab.insert(0, &[1; 4]).unwrap();
        SymbolStore::<Vec<u8>>::clear(&mut slab);
        assert_eq!(
            (
                slab.source.capacity(),
                slab.checks.capacity(),
                slab.slots.capacity()
            ),
            (0, 0, 0)
        );
    }
}
