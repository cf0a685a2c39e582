//! The [`Symbol`] abstraction that lets one peeling implementation serve both
//! the real payload decoder and the index-only ("symbolic") decoder used by
//! the large-scale simulations.
//!
//! The decoding *decisions* of a Tornado code depend only on which packets
//! are present, never on their contents.  Decoding with `Symbol = Vec<u8>`
//! performs the actual XORs; decoding with the zero-sized [`Mark`] symbol
//! performs the identical peeling schedule while moving no data, which is what
//! makes simulating tens of thousands of receivers (Figures 4–6) tractable.
//! Because both decoders are the same generic code, their agreement is
//! structural rather than something that has to be maintained by hand — and it
//! is additionally checked by property tests in `decode.rs`.

use crate::cascade::FinalCode;
use crate::error::Result;
use crate::store::{NoValues, Slab, SymbolStore};
use df_gf::kernels::{xor_acc, xor_sum};

/// A value carried by one encoding packet during decoding: a payload
/// (`Vec<u8>`) or a [`Mark`].
pub trait Symbol: Clone + Sized {
    /// How a decoder lends out a held value: `[u8]` for a payload, whose
    /// rows live in the decoder's file-shaped slab; the [`Mark`] itself.
    type Row: ?Sized + ToOwned<Owned = Self>;

    /// Where a [`crate::PeelingDecoder`] over this symbol keeps its values:
    /// a payload's rows in two buffers, a mark's nowhere.
    type Store: SymbolStore<Self>;

    /// Attempt to recover the full final cascade level from the packets of the
    /// final block received so far.
    ///
    /// `received` holds `(local index, value)` pairs — values are *borrowed*
    /// from the decoder's store, so payloads are never copied just to attempt
    /// recovery.  Local indices `0..k` are last-level packets and `k..n` are
    /// the final code's check packets.  Returns `Ok(None)` when not enough
    /// packets are present.
    ///
    /// # Errors
    ///
    /// Propagates payload-level decoding errors (e.g. odd packet lengths fed
    /// to a GF(2^16) final code).
    fn recover_final_level(
        code: &FinalCode,
        received: &[(usize, &Self::Row)],
    ) -> Result<Option<Vec<Self>>>;
}

impl Symbol for Vec<u8> {
    type Row = [u8];
    type Store = Slab;

    fn recover_final_level(
        code: &FinalCode,
        received: &[(usize, &[u8])],
    ) -> Result<Option<Vec<Self>>> {
        if received.len() < code.k() {
            return Ok(None);
        }
        Ok(Some(code.decode_ref(received)?))
    }
}

/// Rows gathered per call of the many-source kernel.  A value with more
/// sources than this (a dense LT equation) takes one call per batch.
const XOR_BATCH: usize = 32;

/// `dst = (keep ? dst : 0) ⊕ rows…` through [`xor_sum`]/[`xor_acc`], the
/// rows gathered on the stack in batches of [`XOR_BATCH`], so a value costs
/// one kernel call per batch and no allocation.
///
/// # Panics
///
/// Panics if a row's length differs from `dst`'s.
pub(crate) fn xor_rows<'a>(dst: &mut [u8], rows: impl IntoIterator<Item = &'a [u8]>, keep: bool) {
    let mut batch: [&[u8]; XOR_BATCH] = [&[]; XOR_BATCH];
    let mut filled = 0;
    let mut keep = keep;
    for row in rows {
        batch[filled] = row;
        filled += 1;
        if filled == XOR_BATCH {
            xor_batch(dst, &batch, keep);
            (filled, keep) = (0, true);
        }
    }
    if filled > 0 || !keep {
        xor_batch(dst, &batch[..filled], keep);
    }
}

fn xor_batch(dst: &mut [u8], rows: &[&[u8]], keep: bool) {
    if keep {
        xor_acc(dst, rows);
    } else {
        xor_sum(dst, rows);
    }
}

/// The zero-sized symbol used by the symbolic decoder: it records *that* a
/// packet is known, not what it contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mark;

impl Symbol for Mark {
    type Row = Mark;
    type Store = NoValues;

    fn recover_final_level(
        code: &FinalCode,
        received: &[(usize, &Self)],
    ) -> Result<Option<Vec<Self>>> {
        // The final code is MDS: any k of its n packets recover the level.
        if received.len() >= code.k() {
            Ok(Some(vec![Mark; code.k()]))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_xor_is_bytewise() {
        let mut a = vec![0xf0u8, 0x0f];
        xor_rows(&mut a, [&[0xffu8, 0xff][..]], true);
        assert_eq!(a, vec![0x0f, 0xf0]);
    }

    #[test]
    fn batched_rows_match_one_xor_at_a_time() {
        // Across the batch boundary, overwriting and accumulating.
        for count in [0usize, 1, 31, 32, 33, 64, 65, 100] {
            let rows: Vec<Vec<u8>> = (0..count)
                .map(|i| (0..37).map(|j| (i * 41 + j * 7) as u8).collect())
                .collect();
            for keep in [false, true] {
                let mut expect: Vec<u8> = (0..37u8).collect();
                if !keep {
                    expect.fill(0);
                }
                for row in &rows {
                    xor_acc(&mut expect, &[row]);
                }
                let mut got: Vec<u8> = (0..37u8).collect();
                xor_rows(&mut got, rows.iter().map(Vec::as_slice), keep);
                assert_eq!(got, expect, "{count} rows, keep {keep}");
            }
        }
    }

    #[test]
    fn mark_final_level_threshold() {
        let code = FinalCode::build(10, 20).unwrap();
        let not_enough: Vec<(usize, &Mark)> = (0..9).map(|i| (i, &Mark)).collect();
        assert_eq!(Mark::recover_final_level(&code, &not_enough).unwrap(), None);
        let enough: Vec<(usize, &Mark)> = (5..15).map(|i| (i, &Mark)).collect();
        assert_eq!(
            Mark::recover_final_level(&code, &enough).unwrap(),
            Some(vec![Mark; 10])
        );
    }

    #[test]
    fn payload_final_level_decodes_real_data() {
        let code = FinalCode::build(4, 8).unwrap();
        let level: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 6]).collect();
        let mut bytes = level.concat();
        code.append_checks(&mut bytes, 0..24, 6);
        let checks: Vec<&[u8]> = bytes[24..].chunks(6).collect();
        // Receive two level packets and two checks, by reference.
        let received = vec![
            (0usize, &level[0][..]),
            (3, &level[3][..]),
            (4, checks[0]),
            (6, checks[2]),
        ];
        let out = Vec::<u8>::recover_final_level(&code, &received)
            .unwrap()
            .unwrap();
        assert_eq!(out, level);
        // With only three packets it must hold off.
        assert_eq!(
            Vec::<u8>::recover_final_level(&code, &received[..3]).unwrap(),
            None
        );
    }
}
