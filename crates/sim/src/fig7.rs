//! Fig. 7 — chosen-victim success probability vs. attack presence
//! ratio, on wireline and wireless topologies.
//!
//! The paper's headline feasibility result: success probability grows
//! with the fraction of victim-crossing paths the attackers sit on
//! (Theorem 2), reaching certainty at ratio 1 (Theorem 1), with the
//! sparser wireless topology trailing the wireline one.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_attack::montecarlo::{chosen_victim_trial_detailed, ChosenVictimTrial, RatioBins};
use tomo_attack::scenario::AttackScenario;
use tomo_core::params;
use tomo_lp::{warm_enabled, WarmStart};
use tomo_par::{derive_seed, Executor};

use crate::topologies::{build_system, NetworkKind};
use crate::{report, SimError};

/// Fig. 7 experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fig7Config {
    /// Independent topology/placement instances per network kind.
    pub num_systems: usize,
    /// Attack trials per instance.
    pub trials_per_system: usize,
    /// Attacker-count range: each trial samples `1..=max_attackers`.
    pub max_attackers: usize,
    /// Presence-ratio bins over `[0, 1]`.
    pub bins: usize,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            num_systems: 3,
            trials_per_system: 120,
            max_attackers: 4,
            bins: 10,
        }
    }
}

/// One network family's curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Series {
    /// Which family.
    pub kind: String,
    /// Binned success probabilities.
    pub bins: RatioBins,
    /// Total usable trials.
    pub trials: usize,
}

/// Structured Fig. 7 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Master seed.
    pub seed: u64,
    /// Configuration used.
    pub config: Fig7Config,
    /// Wireline curve.
    pub wireline: Fig7Series,
    /// Wireless curve.
    pub wireless: Fig7Series,
}

/// Places one system of `kind` (instance `s`), warms its estimator and
/// runs its trials in trial order; returns the usable trials.
fn run_system(
    kind: NetworkKind,
    s: usize,
    config: &Fig7Config,
    master_seed: u64,
    warm: Option<&WarmStart>,
) -> Result<Vec<ChosenVictimTrial>, SimError> {
    // Separate streams per family and instance.
    let sys_seed = master_seed
        .wrapping_mul(1_000_003)
        .wrapping_add(s as u64)
        .wrapping_add(match kind {
            NetworkKind::Wireline => 0,
            NetworkKind::Wireless => 500_000,
        });
    let system = {
        let _span = tomo_obs::span("sim.fig7.system");
        let system = build_system(kind, sys_seed)?;
        system.warm_estimator_cache()?;
        system
    };
    let scenario = AttackScenario::paper_defaults();
    let delay_model = params::default_delay_model();
    let trial_seed = sys_seed ^ 0xabcd_ef01;
    let mut trials = Vec::with_capacity(config.trials_per_system);
    for t in 0..config.trials_per_system {
        let _trial = tomo_obs::tracing_enabled().then(|| tomo_obs::span("trial"));
        let stream_seed = derive_seed(trial_seed, t as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed);
        let k = rng.gen_range(1..=config.max_attackers.max(1));
        // The detailed variant draws the identical RNG sequence; the
        // extra context feeds trace provenance and is dropped below.
        let detail =
            chosen_victim_trial_detailed(&system, &scenario, &delay_model, k, warm, &mut rng)?;
        if tomo_obs::tracing_enabled() {
            tomo_obs::record_trial(tomo_obs::TrialProvenance {
                experiment: format!("fig7.{kind}.s{s}"),
                trial: t as u64,
                seed: stream_seed,
                warm: detail.as_ref().and_then(|d| d.warm_outcome),
                success: detail.as_ref().map(|d| d.trial.success),
                ..tomo_obs::TrialProvenance::default()
            });
        }
        trials.extend(detail.map(|d| d.trial));
    }
    Ok(trials)
}

/// Folds one family's per-system trials, in system order, into its curve.
fn series(kind: NetworkKind, systems: &[Vec<ChosenVictimTrial>], bins: usize) -> Fig7Series {
    let trials: Vec<ChosenVictimTrial> = systems.concat();
    Fig7Series {
        kind: kind.to_string(),
        bins: RatioBins::from_trials(&trials, bins),
        trials: trials.len(),
    }
}

/// Runs the Fig. 7 experiment, fanning systems out over `exec`.
///
/// Each (family, system) pair is one task — wireline systems first —
/// that places the system from its own seed and runs its trials in
/// order, each from its own `(system seed, trial)`-derived RNG stream.
/// Results are folded in task order, so the output is bit-identical for
/// every thread count.
///
/// # Errors
///
/// Returns [`SimError`] on substrate failure (the lowest-index task's).
pub fn run(seed: u64, config: &Fig7Config, exec: &Executor) -> Result<Fig7Result, SimError> {
    let _span = tomo_obs::span("sim.fig7");
    // One simplex basis cache across both families, shared by every
    // worker thread: trials with the same coalition shape reuse each
    // other's terminal bases — skipping phase 1 outright for feasible
    // repeats and re-certifying infeasible ones in a few pivots.
    // Fig. 7 aggregates only success/ratio tallies (integers), so
    // warm-started solves leave the artifact byte-identical;
    // TOMO_LP_WARM=0 forces the cold path for A/B runs.
    let warm = warm_enabled().then(WarmStart::new);
    let n = config.num_systems;
    let per_system = exec.try_map_groups(2 * n, |task| {
        let kind = if task < n {
            NetworkKind::Wireline
        } else {
            NetworkKind::Wireless
        };
        run_system(kind, task % n, config, seed, warm.as_ref())
    })?;
    let (wireline, wireless) = per_system.split_at(n);
    Ok(Fig7Result {
        seed,
        config: *config,
        wireline: series(NetworkKind::Wireline, wireline, config.bins),
        wireless: series(NetworkKind::Wireless, wireless, config.bins),
    })
}

/// Renders both curves as a table of per-bin success probabilities.
#[must_use]
pub fn render(result: &Fig7Result) -> String {
    let fmt_prob = |p: Option<f64>| match p {
        Some(v) => format!("{:>6.1}%", v * 100.0),
        None => "     —".into(),
    };
    let mut rows = Vec::new();
    for k in 0..result.wireline.bins.len() {
        let lo = result.wireline.bins.edges[k];
        let hi = result.wireline.bins.edges[k + 1];
        rows.push((
            format!("[{:.0}%, {:.0}%)", lo * 100.0, hi * 100.0),
            format!(
                "{} ({:>3})   {} ({:>3})",
                fmt_prob(result.wireline.bins.probability(k)),
                result.wireline.bins.counts[k],
                fmt_prob(result.wireless.bins.probability(k)),
                result.wireless.bins.counts[k],
            ),
        ));
    }
    report::two_column_table(
        &format!(
            "Fig. 7 — chosen-victim success probability vs attack presence ratio\n\
             ({} wireline / {} wireless trials)",
            result.wireline.trials, result.wireless.trials
        ),
        ("presence ratio", "wireline (n)   wireless (n)"),
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Fig7Config {
        Fig7Config {
            num_systems: 1,
            trials_per_system: 40,
            max_attackers: 3,
            bins: 5,
        }
    }

    #[test]
    fn fig7_curves_have_the_paper_shape() {
        let r = run(11, &small_config(), &Executor::single_threaded()).unwrap();
        assert!(r.wireline.trials > 0);
        assert!(r.wireless.trials > 0);

        for series in [&r.wireline, &r.wireless] {
            // Success probability in the top bin dominates the bottom bin
            // (monotone trend, Theorem 2), whenever both are populated.
            let lowest = (0..series.bins.len()).find_map(|k| series.bins.probability(k));
            let highest = (0..series.bins.len())
                .rev()
                .find_map(|k| series.bins.probability(k));
            if let (Some(lo), Some(hi)) = (lowest, highest) {
                assert!(
                    hi >= lo,
                    "{}: high-ratio bin {hi} < low-ratio bin {lo}",
                    series.kind
                );
            }
            // Perfect cuts (ratio = 1) always succeed (Theorem 1): the
            // last bin, when populated by perfect cuts, is 1.0 — checked
            // statistically via the montecarlo unit tests; here we only
            // require it to be the maximum.
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(4, &small_config(), &Executor::single_threaded()).unwrap();
        let b = run(4, &small_config(), &Executor::new(4)).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn render_contains_table() {
        let r = run(11, &small_config(), &Executor::single_threaded()).unwrap();
        let s = render(&r);
        assert!(s.contains("Fig. 7"));
        assert!(s.contains("presence ratio"));
        assert!(s.contains('%'));
    }
}
