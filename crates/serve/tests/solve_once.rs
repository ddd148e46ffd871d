//! The engine solves once per answer: a degraded answer costs exactly
//! one `solve_degraded` call, and the answer carries the same estimate
//! bits and verdict as solving and inspecting separately.
//!
//! The solve counter is process-global, so this binary holds this one
//! test and nothing else runs degraded solves beside it.

use std::sync::Arc;

use tomo_core::fig1::fig1_system;
use tomo_detect::ConsistencyDetector;
use tomo_linalg::Vector;
use tomo_serve::{Engine, ProbeBatch, ProbeRow};

fn degraded_solves() -> u64 {
    tomo_obs::snapshot()
        .counter("core.degraded.solves")
        .unwrap_or(0)
}

#[test]
fn each_degraded_answer_solves_once() {
    let system = Arc::new(fig1_system().expect("fig1 builds"));
    let detector = ConsistencyDetector::recommended();
    let mut engine = Engine::new(Arc::clone(&system), detector);
    let n = system.num_paths();
    let x: Vector = (0..system.num_links())
        .map(|i| 5.0 + (i % 4) as f64)
        .collect();
    let y = system.measure(&x).expect("measure");

    // Coverage grows batch by batch: two paths (rank collapse, ridge),
    // all but one path, then every path.
    let mut saw_ridge = false;
    let mut saw_exact = false;
    for (id, covered) in [2, n - 1, n].into_iter().enumerate() {
        let batch = ProbeBatch {
            batch_id: id as u64,
            epoch: 0,
            rows: (0..covered)
                .map(|i| ProbeRow::new(u32::try_from(i).expect("path fits u32"), y[i]))
                .collect(),
        };
        engine.apply(&batch);

        let before = degraded_solves();
        let answer = engine.query().expect("answer");
        let solves = degraded_solves() - before;

        let rows: Vec<usize> = (0..covered).collect();
        let y_sub: Vector = rows.iter().map(|&i| y[i]).collect();
        if covered < n {
            assert_eq!(solves, 1, "{covered} paths: one solve per answer");
            assert!(answer.degraded);
            let solve = system.solve_degraded(&rows, &y_sub).expect("solve");
            let bits: Vec<u64> = solve.estimate.iter().map(|v| v.to_bits()).collect();
            assert_eq!(answer.estimate_bits, bits, "{covered} paths");
            let inspected = detector
                .inspect_degraded(&system, &rows, &y_sub)
                .expect("inspect");
            assert_eq!(answer.verdict, inspected.verdict, "{covered} paths");
            assert_eq!(answer.used_ridge, solve.used_ridge);
            saw_ridge |= solve.used_ridge;
            saw_exact |= !solve.used_ridge;
        } else {
            assert_eq!(solves, 0, "full coverage takes the exact path");
            assert!(!answer.degraded);
            let estimate = system.estimate(&y_sub).expect("estimate");
            let bits: Vec<u64> = estimate.iter().map(|v| v.to_bits()).collect();
            assert_eq!(answer.estimate_bits, bits);
            let verdict = detector.inspect(&system, &y_sub).expect("inspect");
            assert_eq!(answer.verdict, verdict);
        }
    }
    assert!(saw_ridge && saw_exact, "both degraded branches exercised");
}
