//! Numerical rank utilities.
//!
//! Identifiability in network tomography requires the routing matrix `R` to
//! have full column rank (Section II-B of the paper). Measurement-path
//! selection builds `R` one path (row) at a time, so alongside the one-shot
//! [`rank`] function this module provides [`IncrementalRank`], which answers
//! "does adding this row increase the rank?" by projecting the row onto an
//! orthonormal basis of the *complement* of the accepted rows' span. The
//! test touches only the row's nonzeros and costs `O(nnz · (n − rank))`,
//! which is what makes greedy placement cheap: routing rows have a handful
//! of ones, and most rows arrive when the rank is already close to `n`.

use crate::qr::PivotedQr;
use crate::{Matrix, Vector, DEFAULT_TOL};

/// Numerical rank of a matrix via column-pivoted QR with the default
/// tolerance.
///
/// ```
/// use tomo_linalg::{rank, Matrix};
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
/// assert_eq!(rank::rank(&a), 1);
/// ```
#[must_use]
pub fn rank(a: &Matrix) -> usize {
    PivotedQr::new(a).rank()
}

/// Numerical rank with an explicit tolerance.
#[must_use]
pub fn rank_with_tol(a: &Matrix, tol: f64) -> usize {
    PivotedQr::with_tol(a, tol).rank()
}

/// Returns `true` if `a` has full column rank (is "identifiable" in the
/// tomography sense when `a` is a routing matrix).
#[must_use]
pub fn has_full_column_rank(a: &Matrix) -> bool {
    rank(a) == a.cols()
}

/// Incrementally tracks the rank of a growing set of row vectors.
///
/// Keeps an orthonormal basis `N` of the orthogonal complement of the
/// accepted rows' span: `n − rank` rows of length `n`, starting as the
/// identity. A candidate `row` is tested through its coefficients
/// `c = N·row`, gathered over the row's nonzeros only — `O(nnz · (n −
/// rank))` — and is independent iff its residual `‖c‖₂` exceeds
/// `tol · (1 + ‖row‖₂)` (`‖c‖₂` is exactly the norm of the row's
/// component outside the accepted span). Accepting it applies one
/// Householder reflection in coefficient space that maps `c` onto `e₀`
/// and drops the first row of the reflected basis, in `O((n − rank) · n)`.
///
/// The basis is allocated as an `n × n` identity up front (`8n²` bytes,
/// 0.5 MB at 250 links) and shrinks by one row per accepted row.
/// [`IncrementalRank::try_add`] reports whether a candidate row is
/// (numerically) independent of the rows accepted so far and, if so,
/// absorbs it.
///
/// ```
/// use tomo_linalg::{rank::IncrementalRank, Vector};
///
/// let mut tracker = IncrementalRank::new(3);
/// assert!(tracker.try_add(&Vector::from(vec![1.0, 0.0, 1.0])));
/// assert!(tracker.try_add(&Vector::from(vec![0.0, 1.0, 0.0])));
/// // Dependent on the first two: rejected.
/// assert!(!tracker.try_add(&Vector::from(vec![1.0, 1.0, 1.0])));
/// assert_eq!(tracker.rank(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalRank {
    dim: usize,
    /// Rows of the complement basis (`dim − rank`).
    free: usize,
    /// The complement basis `N`, column-major: column `j` — the
    /// coefficients of unit vector `e_j` — is `comp[j·free..(j+1)·free]`,
    /// so a row's coefficients gather whole contiguous columns.
    comp: Vec<f64>,
    tol: f64,
}

impl IncrementalRank {
    /// Creates a tracker for rows of length `dim` with the default
    /// tolerance.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self::with_tol(dim, DEFAULT_TOL)
    }

    /// Creates a tracker with an explicit independence tolerance.
    #[must_use]
    pub fn with_tol(dim: usize, tol: f64) -> Self {
        let mut comp = vec![0.0; dim * dim];
        for j in 0..dim {
            comp[j * dim + j] = 1.0;
        }
        IncrementalRank {
            dim,
            free: dim,
            comp,
            tol,
        }
    }

    /// Row dimension this tracker accepts.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Current rank (number of accepted independent rows).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.dim - self.free
    }

    /// Returns `true` if the tracked span already covers all of ℝⁿ.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.free == 0
    }

    /// Checks whether `row` is independent of the accepted rows *without*
    /// absorbing it.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim()`.
    #[must_use]
    pub fn would_increase(&self, row: &Vector) -> bool {
        self.coefficients(row).is_some()
    }

    /// Attempts to add `row`; returns `true` (and increases the rank) if it
    /// was independent of the rows accepted so far.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim()`.
    pub fn try_add(&mut self, row: &Vector) -> bool {
        match self.coefficients(row) {
            Some((c, norm)) => {
                self.absorb(&c, norm);
                true
            }
            None => false,
        }
    }

    /// Complement coefficients `N·row` and their norm, if the norm is
    /// numerically nonzero.
    fn coefficients(&self, row: &Vector) -> Option<(Vec<f64>, f64)> {
        assert_eq!(
            row.len(),
            self.dim,
            "row length {} does not match tracker dimension {}",
            row.len(),
            self.dim
        );
        let scale = crate::norms::l2(row);
        if scale == 0.0 {
            return None;
        }
        let m = self.free;
        let mut c = vec![0.0; m];
        for (j, &x) in row.iter().enumerate() {
            if x != 0.0 {
                let col = &self.comp[j * m..(j + 1) * m];
                for (ci, &nij) in c.iter_mut().zip(col) {
                    *ci += x * nij;
                }
            }
        }
        let norm = c.iter().map(|a| a * a).sum::<f64>().sqrt();
        (norm > self.tol * (1.0 + scale)).then_some((c, norm))
    }

    /// Removes the direction `cᵀN` from the complement basis: reflect the
    /// basis with the Householder `H = I − β v vᵀ` (`v = c − α e₀`,
    /// `α = −sign(c₀)·‖c‖`) so that `H c = α e₀`, then drop row 0. Columns
    /// are rewritten in place at the new stride `free − 1`; every write
    /// lands at or before an entry already read.
    fn absorb(&mut self, c: &[f64], norm: f64) {
        let m = self.free;
        let alpha = if c[0] >= 0.0 { -norm } else { norm };
        let v0 = c[0] - alpha;
        let beta = 1.0 / (norm * (norm + c[0].abs()));
        for j in 0..self.dim {
            let src = j * m;
            let col = &self.comp[src..src + m];
            let w = v0 * col[0]
                + c[1..]
                    .iter()
                    .zip(&col[1..])
                    .map(|(a, b)| a * b)
                    .sum::<f64>();
            let bw = beta * w;
            let dst = j * (m - 1);
            for (i, &ci) in c.iter().enumerate().skip(1) {
                self.comp[dst + i - 1] = self.comp[src + i] - bw * ci;
            }
        }
        self.free = m - 1;
        self.comp.truncate(self.dim * self.free);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rank_of_identity_and_zero() {
        assert_eq!(rank(&Matrix::identity(5)), 5);
        assert_eq!(rank(&Matrix::zeros(4, 3)), 0);
        assert!(has_full_column_rank(&Matrix::identity(3)));
        assert!(!has_full_column_rank(&Matrix::zeros(3, 2)));
    }

    #[test]
    fn rank_is_transpose_invariant_on_samples() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0, 2.0, 0.0],
        ])
        .unwrap();
        assert_eq!(rank(&a), 2);
        assert_eq!(rank(&a.transpose()), 2);
    }

    #[test]
    fn incremental_matches_batch_rank() {
        let rows = vec![
            vec![1.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0, 2.0, 0.0], // dependent
            vec![0.0, 0.0, 0.0, 1.0],
        ];
        let mut tracker = IncrementalRank::new(4);
        let mut accepted = 0;
        for r in &rows {
            if tracker.try_add(&Vector::from(r.clone())) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 3);
        assert_eq!(tracker.rank(), 3);
        assert_eq!(rank(&Matrix::from_rows(&rows).unwrap()), 3);
        assert!(!tracker.is_full());
        assert!(tracker.try_add(&Vector::from(vec![5.0, 0.0, 0.0, 0.0])));
        assert!(tracker.is_full());
        // Nothing can increase a full-rank tracker.
        assert!(!tracker.would_increase(&Vector::from(vec![1.0, 2.0, 3.0, 4.0])));
    }

    #[test]
    fn would_increase_does_not_mutate() {
        let mut tracker = IncrementalRank::new(2);
        let v = Vector::from(vec![1.0, 1.0]);
        assert!(tracker.would_increase(&v));
        assert_eq!(tracker.rank(), 0);
        assert!(tracker.try_add(&v));
        assert!(!tracker.would_increase(&v.scaled(3.0)));
    }

    #[test]
    fn zero_row_rejected() {
        let mut tracker = IncrementalRank::new(3);
        assert!(!tracker.try_add(&Vector::zeros(3)));
        assert_eq!(tracker.rank(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match tracker dimension")]
    fn wrong_dimension_panics() {
        let mut tracker = IncrementalRank::new(3);
        let _ = tracker.try_add(&Vector::zeros(2));
    }

    #[test]
    fn complement_basis_stays_orthonormal_and_orthogonal_to_accepted_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 30;
        let mut tracker = IncrementalRank::new(n);
        let mut accepted: Vec<Vec<f64>> = Vec::new();
        while !tracker.is_full() {
            let row: Vec<f64> = (0..n)
                .map(|_| if rng.gen_bool(0.2) { 1.0 } else { 0.0 })
                .collect();
            if !tracker.try_add(&Vector::from(row.clone())) {
                continue;
            }
            accepted.push(row);
            let m = tracker.free;
            assert_eq!(m + accepted.len(), n);
            let entry = |i: usize, j: usize| tracker.comp[j * m + i];
            for i in 0..m {
                for k in 0..m {
                    let dot: f64 = (0..n).map(|j| entry(i, j) * entry(k, j)).sum();
                    let expected = if i == k { 1.0 } else { 0.0 };
                    assert!((dot - expected).abs() < 1e-12, "N Nᵀ[{i}][{k}] = {dot}");
                }
                for a in &accepted {
                    let dot: f64 = (0..n).map(|j| entry(i, j) * a[j]).sum();
                    assert!(
                        dot.abs() < 1e-12,
                        "complement row {i} not orthogonal: {dot}"
                    );
                }
            }
        }
        assert_eq!(tracker.comp.len(), 0);
    }

    #[test]
    fn tolerance_bounds_the_accepted_residual() {
        let base = Vector::from(vec![1.0, 0.0]);
        let nearly = Vector::from(vec![1.0, 1e-6]);
        let mut strict = IncrementalRank::new(2);
        assert!(strict.try_add(&base));
        assert!(
            strict.try_add(&nearly),
            "residual 1e-6 exceeds 1e-9 · (1 + ‖row‖)"
        );
        let mut loose = IncrementalRank::with_tol(2, 1e-3);
        assert!(loose.try_add(&base));
        assert!(
            !loose.try_add(&nearly),
            "residual 1e-6 is below 1e-3 · (1 + ‖row‖)"
        );
        assert_eq!(loose.rank(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The incremental tracker's final rank always equals the batch
        /// QR rank of the same row set (random 0/1 rows like routing-matrix
        /// rows).
        #[test]
        fn incremental_agrees_with_pivoted_qr(seed in 0u64..1000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2usize..8);
            let m = rng.gen_range(1usize..16);
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..n).map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.0 }).collect())
                .collect();
            let mut tracker = IncrementalRank::new(n);
            for r in &rows {
                let _ = tracker.try_add(&Vector::from(r.clone()));
            }
            let batch = rank(&Matrix::from_rows(&rows).unwrap());
            prop_assert_eq!(tracker.rank(), batch);
        }
    }
}
