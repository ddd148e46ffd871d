//! Thread-count invariance of the parallel Monte-Carlo engine.
//!
//! Every trial derives its RNG stream from `(experiment_seed, trial_index)`
//! and results are merged in trial order, so the serialized artifact of any
//! experiment must be byte-identical no matter how many workers ran it —
//! including oversubscribed counts far above the machine's core count.

use scapegoat_tomography::fault::FaultSpec;
use scapegoat_tomography::par::Executor;
use scapegoat_tomography::sim::{chaos, fig7, fig9};

fn fig7_config() -> fig7::Fig7Config {
    fig7::Fig7Config {
        num_systems: 1,
        trials_per_system: 24,
        max_attackers: 3,
        bins: 5,
    }
}

fn fig9_config() -> fig9::Fig9Config {
    fig9::Fig9Config {
        trials: 12,
        ..fig9::Fig9Config::default()
    }
}

/// Fig. 7 fans out one task per (family, system). Three systems per
/// family give six tasks of uneven cost: more tasks than workers at 2
/// and 3 threads, fewer tasks than threads at 8.
#[test]
fn fig7_artifact_is_byte_identical_across_thread_counts() {
    let multi_system = fig7::Fig7Config {
        num_systems: 3,
        trials_per_system: 8,
        ..fig7_config()
    };
    for config in [fig7_config(), multi_system] {
        let baseline = fig7::run(42, &config, &Executor::single_threaded()).unwrap();
        let baseline_json = serde_json::to_string(&baseline).unwrap();
        for threads in [2, 3, 8] {
            let parallel = fig7::run(42, &config, &Executor::new(threads)).unwrap();
            assert_eq!(
                serde_json::to_string(&parallel).unwrap(),
                baseline_json,
                "fig7 artifact ({} systems per family) diverged at {threads} threads",
                config.num_systems
            );
        }
    }
}

#[test]
fn fig9_artifact_is_byte_identical_across_thread_counts() {
    let config = fig9_config();
    let baseline = fig9::run(42, &config, &Executor::single_threaded()).unwrap();
    let baseline_json = serde_json::to_string(&baseline).unwrap();
    for threads in [2, 8] {
        let parallel = fig9::run(42, &config, &Executor::new(threads)).unwrap();
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            baseline_json,
            "fig9 artifact diverged at {threads} threads"
        );
    }
}

/// The simplex warm-start cache must be invisible in the artifacts:
/// fig. 7 aggregates integer tallies whose inputs (LP feasibility,
/// cut structure) are decision-stable, so running the same seed with
/// the basis cache disabled must serialize to the same bytes.
///
/// `TOMO_LP_WARM` is process-global; tests that race with this one can
/// only be pushed onto the cold path, which never changes their
/// assertions (thread-count invariance holds warm or cold).
#[test]
fn fig7_artifact_identical_with_and_without_warm_start() {
    let config = fig7_config();
    std::env::set_var("TOMO_LP_WARM", "0");
    let cold = fig7::run(42, &config, &Executor::new(2)).unwrap();
    std::env::remove_var("TOMO_LP_WARM");
    let warm = fig7::run(42, &config, &Executor::new(2)).unwrap();
    assert_eq!(
        serde_json::to_string(&cold).unwrap(),
        serde_json::to_string(&warm).unwrap(),
        "warm-started fig7 run changed the artifact bytes"
    );
}

/// Same guarantee for fig. 9, whose trials route through the detection
/// experiment (rational attacker: stealthy and plain variants) and thus
/// exercise the warm path inside `detect::experiment` as well.
#[test]
fn fig9_artifact_identical_with_and_without_warm_start() {
    let config = fig9_config();
    std::env::set_var("TOMO_LP_WARM", "0");
    let cold = fig9::run(42, &config, &Executor::new(2)).unwrap();
    std::env::remove_var("TOMO_LP_WARM");
    let warm = fig9::run(42, &config, &Executor::new(2)).unwrap();
    assert_eq!(
        serde_json::to_string(&cold).unwrap(),
        serde_json::to_string(&warm).unwrap(),
        "warm-started fig9 run changed the artifact bytes"
    );
}

/// The chaos sweep must stay byte-identical across thread counts even
/// with every fault kind firing: fault draws come from per-trial plan
/// streams, trial RNGs reseed per retry attempt, and solver sabotage is
/// armed thread-locally — none of it may leak across workers.
#[test]
fn chaos_artifact_is_byte_identical_across_thread_counts() {
    let spec = FaultSpec::parse(
        "loss=0.1,corrupt=0.05,stale=0.1,link_fail=0.05,lp_iter=0.1,lp_singular=0.05",
    )
    .unwrap();
    let config = chaos::ChaosConfig {
        trials_per_point: 16,
        scales: vec![0.0, 1.0, 2.0],
        ..chaos::ChaosConfig::default()
    };
    let baseline = chaos::run(42, &spec, &config, &Executor::single_threaded()).unwrap();
    assert!(baseline.totals.is_balanced());
    assert!(baseline.totals.injected > 0);
    let baseline_json = serde_json::to_string(&baseline).unwrap();
    for threads in [2, 4] {
        let parallel = chaos::run(42, &spec, &config, &Executor::new(threads)).unwrap();
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            baseline_json,
            "chaos artifact diverged at {threads} threads"
        );
    }
}

#[test]
fn executor_from_env_respects_tomo_threads() {
    // `TOMO_THREADS` is read at construction; whatever it says, the
    // artifact must match the sequential baseline.
    let config = fig7_config();
    let baseline = fig7::run(7, &config, &Executor::single_threaded()).unwrap();
    let parallel = fig7::run(7, &config, &Executor::new(5)).unwrap();
    assert_eq!(
        serde_json::to_string(&baseline).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
    );
}
