//! Dense matrices over a [`Field`], with the operations Reed–Solomon erasure
//! codes need: multiplication, Gaussian-elimination inversion, systematic-form
//! construction, and the Vandermonde constructor.
//!
//! The matrices here are *small* (dimension = number of packets in a block, a
//! few hundred to a few tens of thousands of entries), so a straightforward
//! row-major `Vec<F>` representation with O(n^3) inversion is appropriate and
//! is exactly what the baseline codes in the paper pay for — that cost is the
//! point of the comparison against Tornado codes.

use crate::field::Field;
use crate::{GfError, Result};

/// A dense row-major matrix over the field `F`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix<F: Field> {
    rows: usize,
    cols: usize,
    data: Vec<F>,
}

impl<F: Field> Matrix<F> {
    /// Create a matrix of the given shape filled with zeros.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![F::ZERO; rows * cols],
        }
    }

    /// Create the identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m[(i, i)] = F::ONE;
        }
        m
    }

    /// Build a matrix from a row-major vector of elements.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[cfg(test)]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<F>) -> Self {
        assert_eq!(data.len(), rows * cols, "element count must match shape");
        Matrix { rows, cols, data }
    }

    /// Build a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// A Vandermonde matrix whose entry (r, c) is `points[r]^c`.
    ///
    /// With distinct evaluation points every square submatrix formed by
    /// selecting `cols` rows is invertible, which is the property the
    /// Vandermonde Reed–Solomon code relies on.
    pub fn vandermonde(points: &[F], cols: usize) -> Self {
        Self::from_fn(points.len(), cols, |r, c| points[r].pow(c as u64))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow a row as a slice.
    pub fn row(&self, r: usize) -> &[F] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Extract a new matrix consisting of the given rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> Self {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: rows.len(),
            cols: self.cols,
            data,
        }
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::DimensionMismatch`] if the inner dimensions differ.
    pub fn mul(&self, rhs: &Matrix<F>) -> Result<Matrix<F>> {
        if self.cols != rhs.rows {
            return Err(GfError::DimensionMismatch {
                expected: format!("{}x*", self.cols),
                found: format!("{}x{}", rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self[(i, l)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let prod = a * rhs[(l, j)];
                    out[(i, j)] += prod;
                }
            }
        }
        Ok(out)
    }

    /// Invert the matrix with Gauss–Jordan elimination.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::SingularMatrix`] if the matrix is singular and
    /// [`GfError::DimensionMismatch`] if it is not square.
    pub fn inverse(&self) -> Result<Matrix<F>> {
        if self.rows != self.cols {
            return Err(GfError::DimensionMismatch {
                expected: "square matrix".to_string(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut work = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot row with a nonzero entry in this column.
            let pivot = (col..n)
                .find(|&r| !work[(r, col)].is_zero())
                .ok_or(GfError::SingularMatrix)?;
            if pivot != col {
                work.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalise the pivot row.
            let p = work[(col, col)];
            let p_inv = p.inverse().ok_or(GfError::SingularMatrix)?;
            for j in 0..n {
                work[(col, j)] *= p_inv;
                inv[(col, j)] *= p_inv;
            }
            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = work[(r, col)];
                if factor.is_zero() {
                    continue;
                }
                for j in 0..n {
                    let w = factor * work[(col, j)];
                    work[(r, j)] -= w;
                    let v = factor * inv[(col, j)];
                    inv[(r, j)] -= v;
                }
            }
        }
        Ok(inv)
    }

    /// Swap two rows in place.
    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let cols = self.cols;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * cols);
        head[lo * cols..lo * cols + cols].swap_with_slice(&mut tail[..cols]);
    }

    /// Convert a generator matrix into *systematic* form.
    ///
    /// For an `n x k` generator matrix whose top `k x k` block is invertible,
    /// multiplying on the right by the inverse of that block produces a
    /// generator whose top block is the identity.  Encoding with the
    /// systematic generator leaves the first `k` output packets identical to
    /// the source packets, which is what Rizzo-style Vandermonde codes do.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::SingularMatrix`] if the top block is singular.
    pub fn systematic(&self) -> Result<Matrix<F>> {
        if self.rows < self.cols {
            return Err(GfError::DimensionMismatch {
                expected: "at least as many rows as columns".to_string(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        let k = self.cols;
        let top: Vec<usize> = (0..k).collect();
        let top_block = self.select_rows(&top);
        let inv = top_block.inverse()?;
        self.mul(&inv)
    }

    /// True if this matrix is the identity.
    #[cfg(test)]
    pub fn is_identity(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                let expect = if r == c { F::ONE } else { F::ZERO };
                if self[(r, c)] != expect {
                    return false;
                }
            }
        }
        true
    }
}

impl<F: Field> std::ops::Index<(usize, usize)> for Matrix<F> {
    type Output = F;
    fn index(&self, (r, c): (usize, usize)) -> &F {
        &self.data[r * self.cols + c]
    }
}

impl<F: Field> std::ops::IndexMut<(usize, usize)> for Matrix<F> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut F {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GF256;
    use proptest::prelude::*;

    #[test]
    fn identity_times_anything_is_identity_op() {
        let m = Matrix::<GF256>::from_fn(4, 4, |r, c| GF256(((r * 7 + c * 3 + 1) % 256) as u8));
        let id = Matrix::<GF256>::identity(4);
        assert_eq!(id.mul(&m).unwrap(), m);
        assert_eq!(m.mul(&id).unwrap(), m);
    }

    #[test]
    fn inverse_of_identity_is_identity() {
        let id = Matrix::<GF256>::identity(6);
        assert_eq!(id.inverse().unwrap(), id);
    }

    #[test]
    fn vandermonde_square_is_invertible() {
        let points: Vec<GF256> = (1..=8u8).map(GF256).collect();
        let m = Matrix::vandermonde(&points, 8);
        let inv = m
            .inverse()
            .expect("Vandermonde with distinct points is invertible");
        assert!(m.mul(&inv).unwrap().is_identity());
    }

    #[test]
    fn singular_matrix_reports_error() {
        // Two identical rows.
        let m = Matrix::<GF256>::from_vec(2, 2, vec![GF256(3), GF256(5), GF256(3), GF256(5)]);
        assert_eq!(m.inverse(), Err(GfError::SingularMatrix));
    }

    #[test]
    fn non_square_inverse_is_dimension_error() {
        let m = Matrix::<GF256>::zero(2, 3);
        assert!(matches!(
            m.inverse(),
            Err(GfError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn systematic_form_has_identity_prefix() {
        let points: Vec<GF256> = (1..=12u8).map(GF256).collect();
        let gen = Matrix::vandermonde(&points, 8);
        let sys = gen.systematic().unwrap();
        let top = sys.select_rows(&(0..8).collect::<Vec<_>>());
        assert!(top.is_identity());
        // Any 8 rows of the systematic generator must still be invertible
        // (the MDS property survives the change of basis).
        let pick = [0usize, 2, 3, 5, 8, 9, 10, 11];
        assert!(sys.select_rows(&pick).inverse().is_ok());
    }

    #[test]
    fn select_rows_preserves_content() {
        let m = Matrix::<GF256>::from_fn(5, 3, |r, c| GF256((r * 3 + c) as u8));
        let s = m.select_rows(&[4, 0, 2]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), m.row(4));
        assert_eq!(s.row(1), m.row(0));
        assert_eq!(s.row(2), m.row(2));
    }

    #[test]
    fn swap_rows_noop_on_same_index() {
        let mut m = Matrix::<GF256>::from_fn(3, 3, |r, c| GF256((r * 3 + c) as u8));
        let before = m.clone();
        m.swap_rows(1, 1);
        assert_eq!(m, before);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random square matrices over GF(2^8): if inversion succeeds the
        /// product with the inverse must be the identity.
        #[test]
        fn prop_inverse_roundtrip(seed in any::<u64>(), n in 1usize..10) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let m = Matrix::<GF256>::from_fn(n, n, |_, _| GF256(rng.gen()));
            if let Ok(inv) = m.inverse() {
                prop_assert!(m.mul(&inv).unwrap().is_identity());
                prop_assert!(inv.mul(&m).unwrap().is_identity());
            }
        }

        /// Any square row-selection of a Cauchy-extended systematic generator
        /// is invertible (the MDS property the erasure decoder depends on).
        #[test]
        fn prop_vandermonde_submatrices_invertible(
            k in 2usize..7,
            extra in 1usize..6,
            seed in any::<u64>(),
        ) {
            use rand::{seq::SliceRandom, SeedableRng};
            let n = k + extra;
            let points: Vec<GF256> = (1..=n as u8).map(GF256).collect();
            let gen = Matrix::vandermonde(&points, k);
            let mut rows: Vec<usize> = (0..n).collect();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            rows.shuffle(&mut rng);
            let picked: Vec<usize> = rows.into_iter().take(k).collect();
            prop_assert!(gen.select_rows(&picked).inverse().is_ok());
        }
    }
}
