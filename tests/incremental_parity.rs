//! Downdate-vs-rebuild parity for the degraded-solve delta path.
//!
//! Degraded solves drop the missing rows from the cached Gram factor by
//! rank-1 downdates (the estimator-cache delta path in `tomo_core`)
//! instead of refactorizing. These tests pin the properties that keep
//! that safe:
//!
//! * downdating `chol(A + w wᵀ)` by `w` recovers `chol(A)` up to
//!   floating-point working precision;
//! * downdating a row the Gram never contained fails cleanly with
//!   [`LinalgError::NotPositiveDefinite`] instead of producing garbage;
//! * `solve_degraded` agrees between the incremental and rebuild
//!   engines on every surviving-row subset, and is *bitwise* identical
//!   on the ridge fallback.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::core::{fig1::fig1_system, DegradedMode};
use scapegoat_tomography::linalg::cholesky::Cholesky;
use scapegoat_tomography::linalg::{CsrMatrix, LinalgError, Matrix, Vector};

/// One-hop coverage of `n` links plus `extras` random multi-hop rows.
fn random_system(seed: u64, n: usize, extras: usize) -> CsrMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut paths: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    for _ in 0..extras {
        paths.push(random_multi_hop(&mut rng, n));
    }
    CsrMatrix::from_paths(&paths, n).unwrap()
}

/// A sorted random path over `2..=min(4, n)` distinct links.
fn random_multi_hop(rng: &mut ChaCha8Rng, n: usize) -> Vec<usize> {
    let len = rng.gen_range(2..=n.min(4));
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..len {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    let mut p = pool[..len].to_vec();
    p.sort_unstable();
    p
}

fn unit_row(links: &[usize], n: usize) -> Vector {
    let mut w = Vector::zeros(n);
    for &j in links {
        w[j] = 1.0;
    }
    w
}

/// The Gram of `a` with the row `w` added: `AᵀA + w wᵀ`.
fn gram_plus_row(a: &CsrMatrix, w: &Vector) -> Matrix {
    let mut g = a.gram();
    for i in 0..w.len() {
        for j in 0..w.len() {
            g[(i, j)] += w[i] * w[j];
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Downdating `chol(AᵀA + w wᵀ)` by `w` recovers the fresh factor
    /// `chol(AᵀA)` within floating-point working precision, for arbitrary
    /// unit path rows on arbitrary (identifiable) systems.
    #[test]
    fn update_then_downdate_round_trips(seed in 0u64..500, n in 4usize..12) {
        let a = random_system(seed, n, 3);
        let original = Cholesky::new(&a.gram()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0e17_a5ed);
        let w = unit_row(&random_multi_hop(&mut rng, n), n);

        let mut working = Cholesky::new(&gram_plus_row(&a, &w)).unwrap();
        working.rank1_downdate(&w).unwrap();
        prop_assert!(
            working.l().approx_eq(original.l(), 1e-8),
            "round trip drifted past 1e-8 at n={}",
            n
        );
    }

    /// Downdating a multi-hop row from a Gram that never contained it
    /// (one-hop rows only, so the Gram is the identity) must drive a
    /// pivot non-positive and fail cleanly — never silently produce an
    /// indefinite "factor".
    #[test]
    fn downdate_of_absent_row_errors_cleanly(seed in 0u64..500, n in 3usize..10) {
        let a = random_system(seed, n, 0);
        let mut chol = Cholesky::new(&a.gram()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead_d00d);
        let w = unit_row(&random_multi_hop(&mut rng, n), n);

        let err = chol.rank1_downdate(&w).unwrap_err();
        prop_assert!(
            matches!(err, LinalgError::NotPositiveDefinite { .. }),
            "expected NotPositiveDefinite, got {:?}",
            err
        );
    }
}

/// A row can be downdated exactly as many times as the Gram contains it:
/// the second removal is a row "never in the system" and must error.
#[test]
fn double_downdate_errors_after_round_trip() {
    let n = 6;
    let a = random_system(11, n, 0);
    let w = unit_row(&[1, 3, 4], n);
    let mut chol = Cholesky::new(&gram_plus_row(&a, &w)).unwrap();
    chol.rank1_downdate(&w).unwrap();
    let err = chol.rank1_downdate(&w).unwrap_err();
    assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
}

/// `solve_degraded` parity sweep: the incremental delta engine and the
/// historical rebuild agree on every surviving-row subset. When the
/// subset collapses the rank, both modes take the identical ridge path,
/// so the estimates must match *bitwise*.
#[test]
fn solve_degraded_incremental_matches_rebuild() {
    let system = fig1_system().unwrap();
    let n = system.num_links();
    let m = system.num_paths();
    let mut rng = ChaCha8Rng::seed_from_u64(0xfade_da7a);
    let mut saw_ridge = false;
    let mut saw_full_rank = false;

    for trial in 0..40u64 {
        let mut trial_rng = ChaCha8Rng::seed_from_u64(0x1000 + trial);
        let keep = trial_rng.gen_range(n..m);
        let mut rows: Vec<usize> = (0..m).collect();
        for i in 0..keep {
            let j = trial_rng.gen_range(i..m);
            rows.swap(i, j);
        }
        let mut rows = rows[..keep].to_vec();
        rows.sort_unstable();

        let x: Vector = (0..n).map(|_| rng.gen_range(1.0..50.0)).collect();
        let y = system.measure(&x).unwrap();
        let y_sub: Vector = rows.iter().map(|&i| y[i]).collect();

        let inc = system
            .solve_degraded_with(&rows, &y_sub, DegradedMode::Incremental)
            .unwrap();
        let reb = system
            .solve_degraded_with(&rows, &y_sub, DegradedMode::Rebuild)
            .unwrap();

        assert_eq!(inc.used_ridge, reb.used_ridge, "trial {trial}");
        assert_eq!(inc.rank, reb.rank, "trial {trial}");
        assert_eq!(inc.unidentifiable, reb.unidentifiable, "trial {trial}");
        if inc.used_ridge {
            saw_ridge = true;
            for (a, b) in inc.estimate.iter().zip(reb.estimate.iter()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "ridge path diverged, trial {trial}"
                );
            }
        } else {
            saw_full_rank = true;
            assert!(
                inc.estimate.approx_eq(&reb.estimate, 1e-6),
                "engines disagree on trial {trial}"
            );
        }
    }
    assert!(saw_full_rank, "sweep never exercised the delta fast path");
    assert!(saw_ridge, "sweep never exercised the ridge fallback");
}
