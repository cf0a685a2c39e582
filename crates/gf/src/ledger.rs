//! The kernels' work, per thread (see [the crate docs](crate#the-work-ledger)).

use std::cell::Cell;
use std::ops::Sub;

/// Kernel work: a [`snapshot`] of this thread's ledger, or the difference
/// of two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Row XORs: one per source row folded into a destination.
    pub xors: u64,
    /// Bytes of those row XORs.
    pub xor_bytes: u64,
    /// GF(2^8) multiply-accumulates of one coefficient into one row.
    pub mul8_pairs: u64,
    /// Bytes of those GF(2^8) pairs.
    pub mul8_bytes: u64,
    /// GF(2^16) multiply-accumulates of one coefficient into one row.
    pub mul16_pairs: u64,
    /// Bytes of those GF(2^16) pairs.
    pub mul16_bytes: u64,
}

impl Sub for Work {
    type Output = Work;

    fn sub(self, before: Work) -> Work {
        Work {
            xors: self.xors - before.xors,
            xor_bytes: self.xor_bytes - before.xor_bytes,
            mul8_pairs: self.mul8_pairs - before.mul8_pairs,
            mul8_bytes: self.mul8_bytes - before.mul8_bytes,
            mul16_pairs: self.mul16_pairs - before.mul16_pairs,
            mul16_bytes: self.mul16_bytes - before.mul16_bytes,
        }
    }
}

thread_local! {
    static LEDGER: Cell<Work> = Cell::new(Work::default());
}

/// Everything this thread's kernel calls have done since it started.
pub fn snapshot() -> Work {
    LEDGER.with(Cell::get)
}

/// The kinds of work an entry point counts.
pub(crate) enum Op {
    Xor,
    Mul8,
    Mul16,
}

/// Count `rows` operations of kind `op` over rows of `len` bytes.
pub(crate) fn count(op: Op, rows: usize, len: usize) {
    LEDGER.with(|ledger| {
        let mut work = ledger.get();
        let (ops, bytes) = match op {
            Op::Xor => (&mut work.xors, &mut work.xor_bytes),
            Op::Mul8 => (&mut work.mul8_pairs, &mut work.mul8_bytes),
            Op::Mul16 => (&mut work.mul16_pairs, &mut work.mul16_bytes),
        };
        *ops += rows as u64;
        *bytes += (rows * len) as u64;
        ledger.set(work);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gf16, mul_acc_matrix, mul_acc_slice, xor_acc, xor_sum};

    #[test]
    fn each_entry_point_counts_its_own_call_once() {
        let (a, b, c) = ([1u8; 40], [2u8; 40], [3u8; 40]);
        let mut dst = [0u8; 40];
        let before = snapshot();
        xor_acc(&mut dst, &[&a, &b, &c]);
        xor_sum(&mut dst, &[&a, &b]);
        xor_sum(&mut dst, &[&a]);
        xor_sum(&mut dst, &[]);
        let xor = snapshot() - before;
        assert_eq!((xor.xors, xor.xor_bytes), (4, 160));

        let before = snapshot();
        mul_acc_slice(7, &mut dst, &a);
        // Two destinations, three sources; the 0 and the 1 count as pairs.
        let (mut d0, mut d1) = ([0u8; 40], [0u8; 40]);
        mul_acc_matrix(&[0, 1, 2, 3, 4, 5], &mut [&mut d0, &mut d1], &[&a, &b, &c]);
        gf16::mul_acc_slice(9, &mut dst, &b);
        let mul = snapshot() - before;
        assert_eq!(
            mul,
            Work {
                mul8_pairs: 7,
                mul8_bytes: 280,
                mul16_pairs: 1,
                mul16_bytes: 40,
                ..Work::default()
            }
        );
    }

    #[test]
    fn ledgers_are_per_thread() {
        let before = snapshot();
        std::thread::spawn(|| xor_acc(&mut [0u8; 8], &[&[1u8; 8]]))
            .join()
            .unwrap();
        assert_eq!(snapshot(), before);
    }
}
