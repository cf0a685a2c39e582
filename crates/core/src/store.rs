//! Where a decoder keeps the values it holds: the
//! [`PeelingDecoder`](crate::PeelingDecoder) of a carousel, and the rateless
//! solver behind [`LtDecoder`](crate::LtDecoder) and
//! [`RaptorDecoder`](crate::RaptorDecoder).
//!
//! The decoder decides *which* values are held — one bit per packet, or one
//! state per unknown and per equation, the same for every symbol type — and
//! a store keeps them, addressed by index: a carousel's packets by global
//! encoding index; the solver's unknowns at `0..n` and its equations' values
//! at `n + slot`.  The symbol type chooses the store ([`Symbol::Store`]):
//!
//! * payloads (`Vec<u8>`) live in a [`Slab`]: the source rows in one buffer
//!   laid out as the file, every other row in a second one.  A receiver
//!   therefore holds one file plus the rows its decode needed, and the
//!   finished file *is* the source buffer
//!   ([`PeelingDecoder::take_file`](crate::PeelingDecoder::take_file),
//!   [`LtDecoder::take_source`](crate::LtDecoder::take_source));
//! * the index-only [`Mark`](crate::Mark) keeps nothing ([`NoValues`]);
//! * any other symbol keeps one value per packet ([`PerValue`]).
//!
//! A store knows rows, not the decoding schedule: it is told to keep a
//! value, to lend one, and to build one as the XOR of others — all of the
//! others in one pass of the many-source kernel
//! ([`df_gf::kernels::xor_sum`]).

use crate::cascade::{Cascade, FinalCode};
use crate::error::{Result, TornadoError};
use crate::symbol::{xor_rows, Symbol};
use std::borrow::Borrow;
use std::fmt::Debug;
use std::ops::Range;

/// What a store is told about the rows it will hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreShape {
    /// Rows `0..k` are the source, kept laid out as the file.
    pub k: usize,
    /// How many rows the decoder expects to address (a carousel's `n`
    /// packets; the solver's unknowns and about as many equations).  The
    /// second buffer and the slot index are sized for the rows past `k` at
    /// the first of them; rows past `n` may still be kept, and grow them.
    pub n: usize,
    /// First row that may be two bytes wider than the packet size at an odd
    /// packet size (a GF(2^16) final block's check rows, see
    /// [`FinalCode`]); `usize::MAX` when no row is.
    pub wide_from: usize,
}

impl StoreShape {
    /// The shape of `cascade`'s packets.
    pub fn of(cascade: &Cascade) -> Self {
        let gf16_final = matches!(cascade.final_code(), FinalCode::Large(_));
        StoreShape {
            k: cascade.k(),
            n: cascade.n(),
            wide_from: if gf16_final {
                cascade.rs_offset()
            } else {
                usize::MAX
            },
        }
    }

    /// Rows of one width, the first `k` of them the source, about `n` of
    /// them expected.
    pub fn uniform(k: usize, n: usize) -> Self {
        StoreShape {
            k,
            n,
            wide_from: usize::MAX,
        }
    }
}

/// The values a decoder holds.
pub trait SymbolStore<S: Symbol>: Clone + Debug {
    /// A store for rows of `shape` that holds nothing and has allocated
    /// nothing.
    fn empty(shape: StoreShape) -> Self;

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

    /// Make the value of `dst` the XOR of the values of held rows `srcs` —
    /// at least one, and none of them `dst`.  Whatever `dst` held before is
    /// overwritten.
    fn combine(&mut self, dst: usize, srcs: impl Iterator<Item = usize>);

    /// XOR the values of held rows `srcs` — none of them `dst` — into the
    /// value of held row `dst`.
    fn accumulate(&mut self, dst: usize, srcs: impl Iterator<Item = usize>);

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
    fn empty(_shape: StoreShape) -> Self {
        NoValues
    }

    fn insert(&mut self, _g: usize, _value: &crate::Mark) -> Result<()> {
        Ok(())
    }

    fn row(&self, _g: usize) -> &crate::Mark {
        &crate::Mark
    }

    fn combine(&mut self, _dst: usize, _srcs: impl Iterator<Item = usize>) {}

    fn accumulate(&mut self, _dst: usize, _srcs: impl Iterator<Item = usize>) {}

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
    fn empty(_shape: StoreShape) -> Self {
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
        combined.xor_all(srcs.map(value));
        self.put(dst, combined);
    }

    fn accumulate(&mut self, dst: usize, srcs: impl Iterator<Item = usize>) {
        let mut acc = self.values[dst].take().expect("held packets have values");
        acc.xor_all(srcs.map(|g| self.values[g].as_ref().expect("held packets have values")));
        self.values[dst] = Some(acc);
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Buffer {
    Source,
    Others,
}

/// Marks a row past the source that has no slot in a [`Slab`]'s second
/// buffer.
const NO_SLOT: u32 = u32::MAX;

/// Payload rows in two buffers instead of one allocation per value.
///
/// * **Source rows** (rows `0..k`) live in one buffer of `k × P` bytes laid
///   out as the file: row `i` at `i·P`.  It is reserved — not written — at
///   the first row kept, filled by appending while source rows arrive in
///   order, and zero-filled to its full length only at the first source row
///   that arrives out of order.  A complete decode leaves the file's packets
///   in it, in order, and hands the buffer over as the file
///   ([`PeelingDecoder::take_file`](crate::PeelingDecoder::take_file),
///   [`LtDecoder::take_source`](crate::LtDecoder::take_source)).
/// * **Every other row** — a carousel's check packets, the solver's other
///   unknowns and its held equations — takes a slot, in the order rows are
///   first kept, in a second buffer of slots as wide as the widest row
///   (`P`, or `P + 2` for a GF(2^16) final block at an odd `P`), found
///   through a slot index.  A row keeps its slot for as long as the store
///   lives, so a decoder that reuses a row index (the solver reuses the
///   slots of the equations it lets go) reuses the bytes too, and the
///   buffer never holds more slots than the decoder ever held rows at once.
///   Both are allocated at the first such row: a reception that never needs
///   one never allocates them.
///
/// `P` is the packet size, taken from the first row kept; every later row
/// must have the length that implies for its index.  `k` and `P` come off
/// the wire, so the `k × P` reservation may be more than the allocator can
/// give: then the first row is refused ([`TornadoError::MalformedInput`]),
/// and nothing is kept, rather than the process aborting.
#[derive(Debug, Clone)]
pub struct Slab {
    shape: StoreShape,
    packet_size: Option<usize>,
    source: Vec<u8>,
    others: Vec<u8>,
    /// Slot of row `g` in `others`, at `g − k`.
    slots: Vec<u32>,
}

/// Where a [`Slab`]'s rows are, once the packet size is known.
#[derive(Debug, Clone, Copy)]
struct Layout {
    k: usize,
    p: usize,
    wide_from: usize,
}

impl Layout {
    /// The length of row `g`.
    fn width(self, g: usize) -> usize {
        if g >= self.wide_from && self.p % 2 == 1 {
            self.p + 2
        } else {
            self.p
        }
    }

    /// Width of a slot in the second buffer: the widest row.
    fn stride(self) -> usize {
        if self.wide_from == usize::MAX {
            self.p
        } else {
            self.width(self.wide_from)
        }
    }

    /// Where the row of kept row `g` is.
    fn locate(self, slots: &[u32], g: usize) -> (Buffer, Range<usize>) {
        if g < self.k {
            return (Buffer::Source, g * self.p..(g + 1) * self.p);
        }
        let slot = slots[g - self.k];
        debug_assert_ne!(slot, NO_SLOT, "row {g} has no slot");
        let start = slot as usize * self.stride();
        (Buffer::Others, start..start + self.width(g))
    }
}

impl SymbolStore<Vec<u8>> for Slab {
    fn empty(shape: StoreShape) -> Self {
        Slab {
            shape,
            packet_size: None,
            source: Vec::new(),
            others: Vec::new(),
            slots: Vec::new(),
        }
    }

    fn insert(&mut self, g: usize, value: &[u8]) -> Result<()> {
        let p = self.packet_size_from(g, value.len())?;
        let layout = self.layout();
        if value.len() != layout.width(g) {
            return Err(TornadoError::MalformedInput {
                reason: format!(
                    "packet {g} has {} bytes, expected {} at packet size {p}",
                    value.len(),
                    layout.width(g)
                ),
            });
        }
        if g < self.shape.k && g * p == self.source.len() {
            // The next source row in order: the buffer grows by exactly it.
            self.source.extend_from_slice(value);
        } else if g >= self.shape.k && !self.has_slot(g) && value.len() == layout.stride() {
            // A new full-width slot at the end: appended, not zeroed first.
            self.new_slot(g);
            self.others.extend_from_slice(value);
        } else {
            let (buffer, range) = self.place(g);
            self.buffer_mut(buffer)[range].copy_from_slice(value);
        }
        Ok(())
    }

    fn row(&self, g: usize) -> &[u8] {
        let (buffer, range) = self.layout().locate(&self.slots, g);
        &self.buffer(buffer)[range]
    }

    fn combine(&mut self, dst: usize, srcs: impl Iterator<Item = usize>) {
        let dst = self.place(dst);
        self.xor_into(dst, srcs, false);
    }

    fn accumulate(&mut self, dst: usize, srcs: impl Iterator<Item = usize>) {
        let dst = self.layout().locate(&self.slots, dst);
        self.xor_into(dst, srcs, true);
    }

    fn clear(&mut self) {
        self.source = Vec::new();
        self.others = Vec::new();
        self.slots = Vec::new();
    }
}

impl Slab {
    /// Take the source buffer out of the slab, truncated to `file_len`
    /// bytes, and let go of every other row.  Once the decoder that fills
    /// the slab is complete this is the file's packets, in order; `None`
    /// while the buffer is shorter than `k` rows or `file_len` longer.
    pub(crate) fn take_source(&mut self, file_len: usize) -> Option<Vec<u8>> {
        let whole = self.shape.k * self.packet_size?;
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
                self.shape.k
            ),
        };
        let whole = self
            .shape
            .k
            .checked_mul(packet_size)
            .ok_or_else(|| refused("the size overflows".into()))?;
        self.source
            .try_reserve_exact(whole)
            .map_err(|e| refused(e.to_string()))?;
        self.packet_size = Some(packet_size);
        Ok(())
    }

    /// The packet size, taken from row `g`'s `len` bytes if the slab does
    /// not know it yet (see [`Self::set_packet_size`]).
    fn packet_size_from(&mut self, g: usize, len: usize) -> Result<usize> {
        if let Some(p) = self.packet_size {
            return Ok(p);
        }
        let p = if g >= self.shape.wide_from && len % 2 == 1 {
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

    /// Where rows are; the packet size is known once any row has been kept.
    fn layout(&self) -> Layout {
        Layout {
            k: self.shape.k,
            p: self.packet_size.expect("a row was kept before any is read"),
            wide_from: self.shape.wide_from,
        }
    }

    fn buffer(&self, buffer: Buffer) -> &Vec<u8> {
        match buffer {
            Buffer::Source => &self.source,
            Buffer::Others => &self.others,
        }
    }

    fn buffer_mut(&mut self, buffer: Buffer) -> &mut Vec<u8> {
        match buffer {
            Buffer::Source => &mut self.source,
            Buffer::Others => &mut self.others,
        }
    }

    /// Whether row `g`, past the source, has a slot.
    fn has_slot(&self, g: usize) -> bool {
        self.slots
            .get(g - self.shape.k)
            .is_some_and(|&s| s != NO_SLOT)
    }

    /// Give row `g`, past the source and without a slot, the next slot.
    /// The first one sizes the slot index and reserves the second buffer for
    /// the shape's `n − k` rows, so the buffer does not move while it fills;
    /// both grow past that a row at a time.
    fn new_slot(&mut self, g: usize) {
        let at = g - self.shape.k;
        let expected = self.shape.n.saturating_sub(self.shape.k);
        if self.slots.is_empty() {
            // Best effort: a refused reservation only means the buffer
            // grows (and moves) as rows arrive.
            let bytes = expected.saturating_mul(self.layout().stride());
            let _ = self.others.try_reserve_exact(bytes);
        }
        if self.slots.len() <= at {
            self.slots.resize((at + 1).max(expected), NO_SLOT);
        }
        let slot = self.others.len() / self.layout().stride().max(1);
        self.slots[at] = u32::try_from(slot).expect("fewer than 2^32 rows past the source");
    }

    /// Make room for the row of `g` if it has none, and say where it is.
    /// The first source row out of order zero-fills the source buffer to
    /// its full length; a row past the source without a slot takes the
    /// next one.
    fn place(&mut self, g: usize) -> (Buffer, Range<usize>) {
        let layout = self.layout();
        let (k, p) = (layout.k, layout.p);
        if g < k {
            if g * p == self.source.len() {
                self.source.resize((g + 1) * p, 0);
            } else if self.source.len() < k * p {
                self.source.resize(k * p, 0);
            }
        } else if !self.has_slot(g) {
            self.new_slot(g);
            self.others.resize(self.others.len() + layout.stride(), 0);
        }
        layout.locate(&self.slots, g)
    }

    /// `row(dst) = (keep ? row(dst) : 0) ⊕ row(srcs)…`, in one call of the
    /// many-source kernel over rows lent from both buffers.
    fn xor_into(
        &mut self,
        (buffer, dst): (Buffer, Range<usize>),
        srcs: impl Iterator<Item = usize>,
        keep: bool,
    ) {
        let layout = self.layout();
        let slots = &self.slots;
        let (rows, other): (&mut [u8], &[u8]) = match buffer {
            Buffer::Source => (&mut self.source, &self.others),
            Buffer::Others => (&mut self.others, &self.source),
        };
        let (below, rest) = rows.split_at_mut(dst.start);
        let (row, above) = rest.split_at_mut(dst.len());
        let (below, above) = (&*below, &*above);
        let srcs = srcs.map(|g| {
            let (in_buffer, range) = layout.locate(slots, g);
            if in_buffer != buffer {
                &other[range]
            } else if range.end <= dst.start {
                &below[range]
            } else {
                debug_assert!(range.start >= dst.end, "rows overlap");
                &above[range.start - dst.end..range.end - dst.end]
            }
        });
        xor_rows(row, srcs, keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{TORNADO_A, TORNADO_B};

    fn empty(cascade: &Cascade) -> Slab {
        <Slab as SymbolStore<Vec<u8>>>::empty(StoreShape::of(cascade))
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
        assert!(slab.others.is_empty() && slab.slots.is_empty());
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
            slab.shape.k = k;
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
                slab.others.capacity(),
                slab.slots.capacity()
            ),
            (0, 0, 0)
        );
    }
}
