//! `detect-wireline`: the Fig. 9 detectability experiment on one AS-scale
//! wireline system, one trial per `run_detection_experiment` call.
//!
//! Set-up builds the system from the benchmark seed and warms its
//! estimator. The timed phase then calls the experiment with seeds
//! `seed, seed + 1, …` until `--seconds` have passed. A call that returns
//! `Err` is a failed operation: its time still counts and its seed is
//! never skipped or re-drawn. The traced run makes the same untraced
//! calls, replays each trial through the public calls of `tomo-attack`,
//! `tomo-detect` and `tomo-core` under spans, and requires the replayed
//! `DetectionReport` to equal the untraced one.

use std::time::Instant;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tomo_attack::attacker::AttackerSet;
use tomo_attack::cut::{analyze_cut, CutKind};
use tomo_attack::scenario::AttackScenario;
use tomo_attack::{strategy, AttackError, AttackOutcome};
use tomo_core::delay::DelayModel;
use tomo_core::{params, TomographySystem};
use tomo_detect::experiment::{run_detection_experiment, DetectionConfig, DetectionReport};
use tomo_detect::{ConsistencyDetector, ResidualTally};
use tomo_graph::{LinkId, NodeId};
use tomo_lp::{warm_enabled, LpError, WarmStart};
use tomo_par::{derive_seed, Executor};
use tomo_sim::fig9::Fig9Config;
use tomo_sim::topologies::{build_system, NetworkKind};

use crate::report::{median, peak_rss_mb, Report};
use crate::{lp_counters, trace, Args};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 3;

fn set_up(seed: u64) -> (TomographySystem, f64) {
    let start = Instant::now();
    let system = build_system(NetworkKind::Wireline, seed).expect("wireline system builds");
    system
        .warm_estimator_cache()
        .expect("wireline estimator warms");
    (system, start.elapsed().as_secs_f64())
}

fn is_iteration_limit(e: &AttackError) -> bool {
    matches!(e, AttackError::Lp(LpError::IterationLimit { .. }))
}

fn render(r: &Result<DetectionReport, AttackError>) -> String {
    match r {
        Ok(report) => serde_json::to_string(report).unwrap_or_else(|e| format!("{e}")),
        Err(e) => format!("error: {e}"),
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let mut system = None;
    for _ in 0..SETUP_REPEATS {
        let (s, t) = set_up(args.seed);
        setups.push(t);
        system = Some(s);
    }
    let system = system.expect("at least one set-up");
    let fig9 = Fig9Config::default();
    let detector = ConsistencyDetector::new(fig9.alpha)
        .expect("ALPHA_MS is a valid threshold")
        .with_plausibility(ConsistencyDetector::recommended().plausibility_tol());
    let config = DetectionConfig {
        trials: 1,
        num_attackers: fig9.num_attackers,
        scenario: AttackScenario::paper_defaults(),
        obfuscation_min_victims: fig9.obfuscation_min_victims,
    };
    let delays = params::default_delay_model();
    let exec = Executor::single_threaded();
    let replayer = Replayer {
        system: &system,
        detector: &detector,
        delays: &delays,
        config: &config,
    };

    let lp_before = lp_counters();
    if args.trace {
        trace::enable();
    }
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut iteration_limits = 0u64;
    let mut rescores = 0u64;
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let seed = args.seed.wrapping_add(i);
        i += 1;
        let t = Instant::now();
        let result = run_detection_experiment(&system, &detector, &delays, &config, seed, &exec);
        untraced.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        if let Err(e) = &result {
            eprintln!("detect seed {seed}: {e}");
            report.failed += 1;
            iteration_limits += u64::from(is_iteration_limit(e));
        }
        if args.trace {
            let t = Instant::now();
            let replayed = {
                let _root = trace::span("detect.trial");
                replayer.trial(seed, &mut rescores)
            };
            traced.push(t.elapsed().as_secs_f64());
            report.check(render(&result) == render(&replayed), || {
                format!("seed {seed}: traced DetectionReport differs from the untraced one")
            });
        }
    }

    if !args.trace {
        report.metric("setup_s", median(&setups));
        report.metric("wall_s", median(&untraced));
        report.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));
        return;
    }
    let lp = lp_counters().since(&lp_before);
    let spans = trace::drain();
    let layers = trace::LayerTimes::from_spans(&spans);
    report.metric("detect.rescores", rescores as f64);
    report.metric("detect.trials", untraced.len() as f64);
    let (q, v) = crate::report::tail(&untraced);
    report.metric("detect.wall_tail_q", q);
    report.metric("detect.wall_tail_s", v);
    lp.report(report);
    report.metric("lp.iteration_limit_errors", iteration_limits as f64);
    // Overhead from medians, like `wall_s`: one slow trial dominates a sum.
    crate::report_trace(
        report,
        &layers,
        "detect.trial",
        traced.iter().sum(),
        (median(&traced), median(&untraced)),
    );
}

/// `run_detection_experiment` with one trial, one public call at a time.
struct Replayer<'a> {
    system: &'a TomographySystem,
    detector: &'a ConsistencyDetector,
    delays: &'a DelayModel,
    config: &'a DetectionConfig,
}

/// Cell index of each strategy in `DetectionReport::{perfect, imperfect}`.
const CHOSEN_VICTIM: usize = 0;
const MAX_DAMAGE: usize = 1;
const OBFUSCATION: usize = 2;

impl Replayer<'_> {
    fn trial(&self, seed: u64, rescores: &mut u64) -> Result<DetectionReport, AttackError> {
        let system = self.system;
        trace::timed("core.estimator_warm", || system.warm_estimator_cache())?;
        let warm = warm_enabled().then(WarmStart::new);
        let warm = warm.as_ref();
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 0));
        let mut report = DetectionReport::default();

        let mut nodes: Vec<NodeId> = system.graph().nodes().collect();
        let (sampled, _) = nodes.partial_shuffle(&mut rng, self.config.num_attackers.max(1));
        let sampled = sampled.to_vec();
        let attackers = trace::timed("attack.attackers", || AttackerSet::new(system, sampled))?;
        let (x, y_clean) = trace::timed("core.measure", || {
            let x = self.delays.sample(system.num_links(), &mut rng);
            system.measure(&x).map(|y| (x, y))
        })?;
        let tally = trace::timed("detect.tally", || {
            ResidualTally::new(self.detector, system, &y_clean)
        })
        .map_err(AttackError::Core)?;
        report.clean_trials += 1;
        if tally.base_verdict().detected {
            report.false_alarms += 1;
        }
        let scenario = |evade| self.config.scenario.with_evasion(evade);

        let free: Vec<LinkId> = (0..system.num_links())
            .map(LinkId)
            .filter(|&l| !attackers.controls_link(l))
            .collect();
        if let Some(&victim) = free.as_slice().choose(&mut rng) {
            let outcome = rational(
                "attack.chosen_victim.stealthy",
                "attack.chosen_victim.plain",
                |evade| {
                    strategy::chosen_victim_warm(
                        system,
                        &attackers,
                        &scenario(evade),
                        &x,
                        &[victim],
                        warm,
                    )
                },
            )?;
            self.tally(
                CHOSEN_VICTIM,
                &attackers,
                &tally,
                &outcome,
                &mut report,
                rescores,
            )?;
        }
        let outcome = rational(
            "attack.max_damage.stealthy",
            "attack.max_damage.plain",
            |evade| strategy::max_damage_warm(system, &attackers, &scenario(evade), &x, warm),
        )?;
        self.tally(
            MAX_DAMAGE,
            &attackers,
            &tally,
            &outcome,
            &mut report,
            rescores,
        )?;
        let min_victims = self.config.obfuscation_min_victims;
        let outcome = rational(
            "attack.obfuscation.stealthy",
            "attack.obfuscation.plain",
            |evade| {
                strategy::obfuscation_warm(
                    system,
                    &attackers,
                    &scenario(evade),
                    &x,
                    min_victims,
                    warm,
                )
            },
        )?;
        self.tally(
            OBFUSCATION,
            &attackers,
            &tally,
            &outcome,
            &mut report,
            rescores,
        )?;
        Ok(report)
    }

    fn tally(
        &self,
        idx: usize,
        attackers: &AttackerSet,
        tally: &ResidualTally,
        outcome: &AttackOutcome,
        report: &mut DetectionReport,
        rescores: &mut u64,
    ) -> Result<(), AttackError> {
        let Some(s) = outcome.success() else {
            return Ok(());
        };
        let cut = trace::timed("attack.cut", || {
            analyze_cut(self.system, attackers, &s.victims)
        });
        *rescores += 1;
        let verdict = trace::timed("detect.tally", || {
            tally.rescore(self.detector, self.system, &s.manipulation)
        })
        .map_err(AttackError::Core)?;
        let cell = match cut.kind {
            CutKind::Perfect => &mut report.perfect[idx],
            CutKind::Imperfect | CutKind::NoCoverage => &mut report.imperfect[idx],
        };
        cell.attacks += 1;
        if verdict.detected {
            cell.detected += 1;
        }
        Ok(())
    }
}

/// The rational attacker: the stealthy LP first, the plain one when the
/// stealthy one does not succeed; each under its own span.
fn rational(
    stealthy: &'static str,
    plain: &'static str,
    run: impl Fn(bool) -> Result<AttackOutcome, AttackError>,
) -> Result<AttackOutcome, AttackError> {
    let outcome = trace::timed(stealthy, || run(true))?;
    if outcome.is_success() {
        return Ok(outcome);
    }
    trace::timed(plain, || run(false))
}
