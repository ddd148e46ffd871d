//! Warm-start basis cache for the two-phase simplex.
//!
//! Monte-Carlo attack experiments solve long streams of LPs that share
//! one *constraint skeleton* — same variable count and bounds, same
//! relations, same sparsity pattern — and differ only in coefficients
//! drawn from the same estimator rows and in right-hand sides derived
//! from freshly sampled delays. A [`WarmStart`] handle remembers, per
//! skeleton, the basis that ended the previous solve (and the basis
//! that ended its phase 1), so the next solve can *crash* that basis
//! into the fresh tableau and either skip phase 1 entirely — re-entering
//! phase 2 from a near-optimal vertex — or, when the remembered solve
//! ended infeasible, re-run phase 1 from its terminal basis and
//! re-certify infeasibility in a handful of pivots.
//!
//! The reuse protocol is strictly best-effort: if the remembered basis
//! is singular or primal-infeasible under the new data, the solver
//! falls back to a cold two-phase solve. Hits and misses are counted in
//! `lp.simplex.warm.hits` / `lp.simplex.warm.misses`, and per-solve
//! pivot counts land in the `lp.simplex.warm.pivots` /
//! `lp.simplex.cold.pivots` histograms for before/after comparison.
//!
//! Sharing: the handle is `Sync` (a mutex-guarded map), so one handle
//! can serve all worker threads of a Monte-Carlo sweep. Results stay
//! *decision*-identical to cold solves (status, objective up to solver
//! tolerance); callers that persist raw solution bytes should solve
//! cold instead (see DESIGN.md §5d).

use std::collections::HashMap;
use std::sync::Mutex;

/// Cached bases for one constraint skeleton.
#[derive(Debug, Clone, Default)]
pub(crate) struct CachedBases {
    /// Standard-form dimensions used for a cheap compatibility check.
    pub(crate) m: usize,
    pub(crate) ncols: usize,
    /// Basis at the end of the most recent phase 1 — the feasible basis
    /// a successful phase 1 produced, or the terminal basis of an
    /// infeasibility certificate (artificials still basic), which lets
    /// the next solve re-certify infeasibility in a handful of pivots.
    pub(crate) phase1: Option<Vec<usize>>,
    /// Basis at the end of the most recent optimal solve.
    pub(crate) final_basis: Option<Vec<usize>>,
}

/// A shareable basis cache keyed by constraint skeleton.
///
/// Create one handle per stream of structurally similar LPs (one
/// Monte-Carlo family, one detection experiment) and pass it to
/// [`LpProblem::solve_warm`](crate::LpProblem::solve_warm). The handle
/// is `Sync`; clone-free sharing by reference across worker threads is
/// the intended use.
#[derive(Debug, Default)]
pub struct WarmStart {
    slots: Mutex<HashMap<u64, CachedBases>>,
}

impl WarmStart {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// Number of distinct constraint skeletons cached so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` if no skeleton has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drops all cached bases.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Candidate bases for `key`, best first (final basis, then the
    /// phase-1 basis), filtered by standard-form dimensions.
    pub(crate) fn candidates(&self, key: u64, m: usize, ncols: usize) -> Vec<Vec<usize>> {
        let slots = self.lock();
        let Some(entry) = slots.get(&key) else {
            return Vec::new();
        };
        if entry.m != m || entry.ncols != ncols {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(2);
        if let Some(b) = &entry.final_basis {
            out.push(b.clone());
        }
        if let Some(b) = &entry.phase1 {
            if entry.final_basis.as_ref() != Some(b) {
                out.push(b.clone());
            }
        }
        out
    }

    /// Records the bases that ended a solve of skeleton `key`.
    pub(crate) fn store(
        &self,
        key: u64,
        m: usize,
        ncols: usize,
        phase1: Option<Vec<usize>>,
        final_basis: Option<Vec<usize>>,
    ) {
        let mut slots = self.lock();
        let entry = slots.entry(key).or_default();
        if entry.m != m || entry.ncols != ncols {
            // Hash collision between different skeletons: keep the newer.
            *entry = CachedBases::default();
        }
        entry.m = m;
        entry.ncols = ncols;
        if phase1.is_some() {
            entry.phase1 = phase1;
        }
        if final_basis.is_some() {
            entry.final_basis = final_basis;
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, CachedBases>> {
        self.slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// `false` when the `TOMO_LP_WARM` environment variable disables
/// warm-starting (`0`, `false`, or `off`, case-insensitive).
///
/// Experiment drivers consult this before creating a [`WarmStart`]
/// handle, so `TOMO_LP_WARM=0` forces every solve down the cold path —
/// the hook the `lp-warm` workload of `tomo-bench` uses to compare
/// cold and warm pivot counts.
#[must_use]
pub fn warm_enabled() -> bool {
    match std::env::var("TOMO_LP_WARM") {
        Ok(v) => !matches!(v.to_ascii_lowercase().as_str(), "0" | "false" | "off"),
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_has_no_candidates() {
        let w = WarmStart::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert!(w.candidates(7, 3, 5).is_empty());
    }

    #[test]
    fn store_and_fetch_orders_final_first() {
        let w = WarmStart::new();
        w.store(1, 3, 5, Some(vec![0, 1, 2]), None);
        w.store(1, 3, 5, None, Some(vec![2, 3, 4]));
        assert_eq!(w.len(), 1);
        let c = w.candidates(1, 3, 5);
        assert_eq!(c, vec![vec![2, 3, 4], vec![0, 1, 2]]);
        // Dimension mismatch yields nothing.
        assert!(w.candidates(1, 4, 5).is_empty());
        w.clear();
        assert!(w.is_empty());
    }

    #[test]
    fn identical_bases_deduplicated() {
        let w = WarmStart::new();
        w.store(9, 2, 4, Some(vec![1, 2]), Some(vec![1, 2]));
        assert_eq!(w.candidates(9, 2, 4), vec![vec![1, 2]]);
    }

    #[test]
    fn collision_resets_entry() {
        let w = WarmStart::new();
        w.store(5, 2, 4, None, Some(vec![0, 1]));
        // Same key, different skeleton dimensions: old basis must not leak.
        w.store(5, 3, 6, None, Some(vec![0, 1, 2]));
        assert!(w.candidates(5, 2, 4).is_empty());
        assert_eq!(w.candidates(5, 3, 6), vec![vec![0, 1, 2]]);
    }
}
