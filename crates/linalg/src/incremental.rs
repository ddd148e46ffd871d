//! Incremental normal-equations engine: rank-1 factor deltas instead of
//! refactorization.
//!
//! Adding a unit path row `r` to the routing matrix changes the Gram
//! matrix by `+r rᵀ`; dropping one changes it by `−r rᵀ`. Both are
//! rank-1, so the cached Cholesky factor can absorb them in O(n²)
//! rotations ([`Cholesky::rank1_update`] / [`Cholesky::rank1_downdate`])
//! where a rebuild costs a full factorization — the MINC
//! `update_estimator` idiom applied to the Eq. (2) estimator. The same
//! identity drives [`pseudo_inverse_drop_row`]: a Sherman–Morrison
//! update of the materialized `A⁺ = (AᵀA)⁻¹Aᵀ` when a path is dropped.
//!
//! Floating-point drift: K successive rank-1 rotations are not the same
//! op sequence as one fresh factorization, so after
//! [`REFACTOR_INTERVAL`] deltas the [`IncrementalNormalSolver`]
//! refactorizes from its row set — the same eta-cadence discipline as
//! the revised simplex's `REFACTOR_INTERVAL = 64` (`lp/src/revised.rs`),
//! with a longer leash because each rotation is backward-stable and the
//! refactor itself is cheap on the sparse kernel. The drift bound is
//! pinned by `tests/incremental_parity.rs`.

use crate::cholesky::Cholesky;
use crate::sparse_chol::SparseCholesky;
use crate::{CsrBuilder, CsrMatrix, LinalgError, Matrix, Vector};
use tomo_obs::LazyCounter;

static REFACTORS: LazyCounter = LazyCounter::new("linalg.chol.refactors");

/// Number of rank-1 deltas an [`IncrementalNormalSolver`] absorbs before
/// it refactorizes from scratch to cap floating-point drift.
pub const REFACTOR_INTERVAL: usize = 1024;

/// A normal-equations solver whose Gram factor follows path add/drop
/// deltas by rank-1 update/downdate instead of refactorization.
///
/// Unlike [`NormalEquationsSolver`](crate::lstsq::NormalEquationsSolver)
/// — which picks the cheapest factorization for a *fixed* system — this
/// solver always keeps a **dense** factor, because that is the
/// representation rank-1 rotations can modify in place. Periodic
/// refactors still run through the sparse kernel and expand
/// ([`SparseCholesky::to_dense_factor`]), so cadence cost scales with
/// the Gram's nonzeros, not n³.
#[derive(Debug, Clone)]
pub struct IncrementalNormalSolver {
    rows: CsrBuilder,
    chol: Cholesky,
    deltas_since_refactor: usize,
    /// Columns whose factor diagonal has not been seeded yet (freshly
    /// grown links with no covering row). Solving is refused until every
    /// column is covered.
    uncovered: usize,
}

impl IncrementalNormalSolver {
    /// Builds the solver from an initial routing matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if `a` lacks full
    /// column rank.
    pub fn from_sparse(a: CsrMatrix) -> Result<Self, LinalgError> {
        let chol = dense_factor_of(&a)?;
        Ok(IncrementalNormalSolver {
            rows: CsrBuilder::from_matrix(&a),
            chol,
            deltas_since_refactor: 0,
            uncovered: 0,
        })
    }

    /// Current number of path rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows.rows()
    }

    /// Current number of links (columns).
    #[must_use]
    pub fn num_cols(&self) -> usize {
        self.rows.cols()
    }

    /// Rank-1 deltas absorbed since the last refactorization.
    #[must_use]
    pub fn deltas_since_refactor(&self) -> usize {
        self.deltas_since_refactor
    }

    /// Borrows the current dense factor (for parity checks and the
    /// estimator-cache delta path).
    #[must_use]
    pub fn factor(&self) -> &Cholesky {
        &self.chol
    }

    /// Clones the current row set into a standalone [`CsrMatrix`].
    #[must_use]
    pub fn snapshot(&self) -> CsrMatrix {
        self.rows.snapshot()
    }

    /// Grows the link space to `cols` columns. The new columns enter
    /// with zero factor diagonals and must each be covered by at least
    /// one subsequent [`IncrementalNormalSolver::add_path_row`] before
    /// [`IncrementalNormalSolver::solve`] is legal again.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if `cols` shrinks the
    /// system.
    pub fn grow_cols(&mut self, cols: usize) -> Result<(), LinalgError> {
        let old = self.rows.cols();
        self.rows.grow_cols(cols)?;
        if cols > old {
            self.chol = self.chol.padded(cols)?;
            self.uncovered += cols - old;
        }
        Ok(())
    }

    /// Adds a unit path row over `links` and absorbs its `+r rᵀ` Gram
    /// correction into the factor. Returns the new row's index.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] when `links` is empty or an
    /// index is out of range.
    pub fn add_path_row(&mut self, links: &[usize]) -> Result<usize, LinalgError> {
        let n = self.rows.cols();
        let support = self.rows.add_path_row(links)?;
        let mut w = Vector::zeros(n);
        for &j in &support {
            w[j] = 1.0;
        }
        self.chol.rank1_update(&w)?;
        if self.uncovered > 0 {
            // Growth phase: recount — a single row spanning several
            // fresh links seeds only the first of them.
            self.uncovered = (0..n).filter(|&j| self.chol.l()[(j, j)] == 0.0).count();
        }
        self.bump_cadence();
        Ok(self.rows.rows() - 1)
    }

    /// Drops path row `row` and absorbs its `−r rᵀ` Gram correction by
    /// rank-1 downdate. Rows after `row` shift down by one, mirroring
    /// [`CsrBuilder::drop_path_row`].
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidShape`] if `row` is out of range.
    /// * [`LinalgError::NotPositiveDefinite`] if removing the row
    ///   collapses the Gram rank — the row was load-bearing for some
    ///   link. The row is still removed; the factor is rebuilt from the
    ///   surviving rows before the error is returned, so the solver
    ///   stays usable iff the surviving system is identifiable (it is
    ///   not, here — but the error then reports the rebuilt
    ///   factorization's failing pivot, and the solver must be treated
    ///   as poisoned).
    pub fn drop_path_row(&mut self, row: usize) -> Result<(), LinalgError> {
        let n = self.rows.cols();
        let removed = self.rows.drop_path_row(row)?;
        let mut w = Vector::zeros(n);
        for &(j, v) in &removed {
            w[j] = v;
        }
        if let Err(e) = self.chol.rank1_downdate(&w) {
            // The in-place downdate poisoned the factor; refactorize
            // from the surviving rows so a caller that can tolerate the
            // rank collapse (e.g. via ridge elsewhere) still holds a
            // coherent object — and propagate the collapse either way.
            match self.refactor() {
                Ok(()) => return Err(e),
                Err(re) => return Err(re),
            }
        }
        self.bump_cadence();
        Ok(())
    }

    /// Solves `min ‖A x − b‖₂` against the current row set. `b` is in
    /// this solver's row order (rows shift on drops).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `b.len() != num_rows()`.
    /// * [`LinalgError::NotPositiveDefinite`] if grown columns are still
    ///   uncovered.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        if self.uncovered > 0 {
            return Err(LinalgError::NotPositiveDefinite {
                index: self.first_uncovered(),
            });
        }
        let m = self.rows.rows();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "incremental_solve",
                lhs: (m, self.rows.cols()),
                rhs: (b.len(), 1),
            });
        }
        let n = self.rows.cols();
        let mut atb = Vector::zeros(n);
        for i in 0..m {
            let bi = b[i];
            if bi == 0.0 {
                continue;
            }
            for (&j, &v) in self.rows.row_indices(i).iter().zip(self.rows.row_values(i)) {
                atb[j] += v * bi;
            }
        }
        self.chol.solve(&atb)
    }

    /// Refactorizes from the current row set (through the sparse kernel
    /// when the system is large enough for it to win) and resets the
    /// delta cadence.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if the current rows
    /// no longer span the link space.
    pub fn refactor(&mut self) -> Result<(), LinalgError> {
        REFACTORS.inc();
        let snap = self.rows.snapshot();
        self.chol = dense_factor_of(&snap)?;
        self.deltas_since_refactor = 0;
        self.uncovered = 0;
        Ok(())
    }

    fn bump_cadence(&mut self) {
        self.deltas_since_refactor += 1;
        if self.deltas_since_refactor >= REFACTOR_INTERVAL && self.uncovered == 0 {
            // Drift cap. The row set is identifiable (the running factor
            // is PD), so the refactor cannot fail except through the
            // tolerance — in which case keeping the rotated factor is
            // the best available state.
            let _ = self.refactor();
        }
    }

    fn first_uncovered(&self) -> usize {
        let n = self.rows.cols();
        (0..n)
            .find(|&j| self.chol.l()[(j, j)] == 0.0)
            .unwrap_or(n.saturating_sub(1))
    }
}

/// Factorizes the Gram of `a` into a *dense* factor, routing through
/// the sparse kernel above the same gate as
/// [`NormalEquationsSolver::from_sparse`][gate].
///
/// [gate]: crate::lstsq::SPARSE_FACTOR_MIN_DIM
fn dense_factor_of(a: &CsrMatrix) -> Result<Cholesky, LinalgError> {
    if a.cols() >= crate::lstsq::SPARSE_FACTOR_MIN_DIM {
        Ok(SparseCholesky::new(&a.gram_csr())?.to_dense_factor())
    } else {
        Cholesky::new(&a.gram())
    }
}

/// Sherman–Morrison update of a materialized pseudo-inverse after
/// *dropping* row `row` from `A` (its entries given as `(link, value)`
/// pairs): returns `A′⁺` of shape `n × (m−1)` with `row`'s column
/// removed and later columns shifted left.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `row` or a link index is out
///   of range.
/// * [`LinalgError::NotPositiveDefinite`] if dropping the row collapses
///   the Gram rank (`1 − rᵀ(AᵀA)⁻¹r` not positive).
pub fn pseudo_inverse_drop_row(
    pinv: &Matrix,
    chol: &Cholesky,
    row: usize,
    entries: &[(usize, f64)],
) -> Result<Matrix, LinalgError> {
    let (n, m) = pinv.shape();
    if row >= m || entries.iter().any(|&(j, _)| j >= n) {
        return Err(LinalgError::DimensionMismatch {
            op: "pseudo_inverse_drop_row",
            lhs: (n, m),
            rhs: (row, 1),
        });
    }
    let mut r = Vector::zeros(n);
    for &(j, v) in entries {
        r[j] = v;
    }
    let g = chol.solve(&r)?;
    let beta = 1.0 - entries.iter().map(|&(j, v)| v * g[j]).sum::<f64>();
    if beta <= 1e-12 {
        return Err(LinalgError::NotPositiveDefinite { index: row });
    }
    let mut out = Matrix::zeros(n, m - 1);
    let mut dst = 0usize;
    for j in 0..m {
        if j == row {
            continue;
        }
        let rtp: f64 = entries.iter().map(|&(k, v)| v * pinv[(k, j)]).sum();
        let scale = rtp / beta;
        for i in 0..n {
            out[(i, dst)] = pinv[(i, j)] + g[i] * scale;
        }
        dst += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq::NormalEquationsSolver;

    fn paths() -> Vec<Vec<usize>> {
        let mut p: Vec<Vec<usize>> = (0..6).map(|i| vec![i]).collect();
        p.push(vec![0, 1, 2]);
        p.push(vec![2, 3]);
        p.push(vec![1, 4, 5]);
        p
    }

    fn system() -> CsrMatrix {
        CsrMatrix::from_paths(&paths(), 6).unwrap()
    }

    fn rhs(m: usize) -> Vector {
        (0..m).map(|i| (i as f64 * 0.9).cos() * 5.0).collect()
    }

    #[test]
    fn tracks_cold_solver_through_adds_and_drops() {
        let mut inc = IncrementalNormalSolver::from_sparse(system()).unwrap();
        inc.add_path_row(&[3, 4]).unwrap();
        inc.add_path_row(&[0, 5]).unwrap();
        inc.drop_path_row(6).unwrap(); // the [0,1,2] extra
        let snap = inc.snapshot();
        let cold = NormalEquationsSolver::from_sparse(snap).unwrap();
        let b = rhs(inc.num_rows());
        let xi = inc.solve(&b).unwrap();
        let xc = cold.solve(&b).unwrap();
        assert!(xi.approx_eq(&xc, 1e-9));
    }

    #[test]
    fn grow_then_cover_then_solve() {
        let mut inc = IncrementalNormalSolver::from_sparse(system()).unwrap();
        inc.grow_cols(8).unwrap();
        assert_eq!(inc.num_cols(), 8);
        // Uncovered columns refuse to solve…
        assert!(matches!(
            inc.solve(&rhs(inc.num_rows())),
            Err(LinalgError::NotPositiveDefinite { index: 6 })
        ));
        // …until one-hop rows arrive, then multi-hop spanning old+new.
        inc.add_path_row(&[6]).unwrap();
        inc.add_path_row(&[7]).unwrap();
        inc.add_path_row(&[2, 6, 7]).unwrap();
        let cold = NormalEquationsSolver::from_sparse(inc.snapshot()).unwrap();
        let b = rhs(inc.num_rows());
        assert!(inc
            .solve(&b)
            .unwrap()
            .approx_eq(&cold.solve(&b).unwrap(), 1e-9));
    }

    #[test]
    fn load_bearing_drop_reports_rank_collapse() {
        let mut inc = IncrementalNormalSolver::from_sparse(system()).unwrap();
        // Link 3's only other coverage is the [2,3] extra; dropping the
        // one-hop row for 3 keeps rank. Dropping both collapses it.
        inc.drop_path_row(3).unwrap();
        // Rows above 3 shifted down: the [2,3] extra is now row 6.
        let err = inc.drop_path_row(6).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn refactor_interval_resets_cadence() {
        let mut inc = IncrementalNormalSolver::from_sparse(system()).unwrap();
        for _ in 0..REFACTOR_INTERVAL {
            inc.add_path_row(&[1, 3]).unwrap();
        }
        assert_eq!(inc.deltas_since_refactor(), 0);
        let cold = NormalEquationsSolver::from_sparse(inc.snapshot()).unwrap();
        let b = rhs(inc.num_rows());
        assert!(inc
            .solve(&b)
            .unwrap()
            .approx_eq(&cold.solve(&b).unwrap(), 1e-9));
    }

    #[test]
    fn sherman_morrison_drop_matches_rebuild() {
        let a = system();
        let solver = NormalEquationsSolver::from_sparse(a.clone()).unwrap();
        let pinv = solver.pseudo_inverse().unwrap();
        let chol = solver.dense_factor().unwrap();
        let row = 7; // the [2,3] extra
        let entries: Vec<(usize, f64)> = a.row_iter(row).collect();
        let updated = pseudo_inverse_drop_row(&pinv, chol, row, &entries).unwrap();

        let mut remaining = paths();
        remaining.remove(row);
        let rebuilt =
            NormalEquationsSolver::from_sparse(CsrMatrix::from_paths(&remaining, 6).unwrap())
                .unwrap()
                .pseudo_inverse()
                .unwrap();
        assert!(updated.approx_eq(&rebuilt, 1e-9));
        assert!(pseudo_inverse_drop_row(&pinv, chol, 99, &entries).is_err());
    }

    #[test]
    fn sherman_morrison_drop_detects_rank_collapse() {
        // One-hop-only system: every row is load-bearing.
        let a = CsrMatrix::from_paths(&[vec![0], vec![1], vec![2]], 3).unwrap();
        let solver = NormalEquationsSolver::from_sparse(a).unwrap();
        let pinv = solver.pseudo_inverse().unwrap();
        let chol = solver.dense_factor().unwrap();
        assert!(matches!(
            pseudo_inverse_drop_row(&pinv, chol, 1, &[(1, 1.0)]),
            Err(LinalgError::NotPositiveDefinite { index: 1 })
        ));
    }
}
