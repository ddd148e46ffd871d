//! `fig7-montecarlo`: the paper's headline figure through
//! `tomo_sim::fig7::run` on a two-thread executor.
//!
//! The untraced run times one `fig7::run` call whose `num_systems` is
//! sized to the run length. The traced run replays the same call through
//! the public calls of each layer — topology generation, the
//! `random_placement` loop split into Yen / row build / rank test /
//! system build, the estimator warm-up and the trials — and asserts that
//! the replay matches `fig7::run` byte for byte and `random_placement`
//! monitor for monitor and path for path.

use std::time::Instant;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use tomo_attack::montecarlo::{chosen_victim_trial_detailed, ChosenVictimTrial, RatioBins};
use tomo_attack::scenario::AttackScenario;
use tomo_core::placement::{random_placement, PlacementConfig};
use tomo_core::selection::path_row;
use tomo_core::{params, TomographySystem};
use tomo_graph::{isp, rgg, shortest, Graph, NodeId, Path};
use tomo_linalg::rank::IncrementalRank;
use tomo_lp::{warm_enabled, WarmStart};
use tomo_par::{derive_seed, Executor};
use tomo_sim::fig7::{self, Fig7Config, Fig7Result, Fig7Series};
use tomo_sim::topologies::NetworkKind;

use crate::report::{median, Report};
use crate::{lp_counters, trace, Args};

/// Worker threads: the 2-core machine this benchmark was sized on.
const THREADS: usize = 2;
/// Wall seconds one system per family takes in `fig7::run` on the
/// sizing machine; `num_systems` is `--seconds` divided by this.
const SECONDS_PER_SYSTEM: f64 = 3.5;
/// Set-up repetitions whose median is `setup_s`, and the Fig. 1 trials
/// in each; one repetition takes about 10 ms.
const SETUP_REPEATS: usize = 15;
const WARM_UP_TRIALS: usize = 256;
/// The committed artifact `tomo-sim run fig7 --seed 42` reproduces.
const ARTIFACT: &str = "artifacts/fig7.json";
const ARTIFACT_SEED: u64 = 42;

/// The untraced run sizes `num_systems` to `--seconds`. The traced run
/// makes the call twice (untraced, then replayed under spans) and adds the
/// parity and artifact checks, so it takes half the systems to stay well
/// inside the per-run time limit when the machine is slow.
fn config(args: &Args) -> Fig7Config {
    let systems = ((args.seconds / SECONDS_PER_SYSTEM).round() as usize).max(1);
    Fig7Config {
        num_systems: if args.trace {
            systems.div_ceil(2)
        } else {
            systems
        },
        ..Fig7Config::default()
    }
}

fn to_json(result: &Fig7Result) -> String {
    serde_json::to_string_pretty(result).unwrap_or_else(|e| format!("unserializable: {e}"))
}

/// Process warm-up: a fresh executor and a small chosen-victim batch on
/// the Fig. 1 system, which faults in the code, the allocator arenas and
/// the executor's threads before the timed call.
fn warm_up() -> f64 {
    let start = Instant::now();
    let exec = Executor::new(THREADS);
    let system = tomo_core::fig1::fig1_system().expect("the Fig. 1 system builds");
    system
        .warm_estimator_cache()
        .expect("the Fig. 1 estimator warms");
    let scenario = AttackScenario::paper_defaults();
    let delays = params::default_delay_model();
    let trials = exec.map(WARM_UP_TRIALS, |t| {
        let mut rng = ChaCha8Rng::seed_from_u64(t as u64);
        chosen_victim_trial_detailed(&system, &scenario, &delays, 2, None, &mut rng).is_ok()
    });
    assert!(
        trials.into_iter().all(|ok| ok),
        "Fig. 1 warm-up trial failed"
    );
    start.elapsed().as_secs_f64()
}

pub fn run(args: &Args, report: &mut Report) {
    let setups: Vec<f64> = (0..SETUP_REPEATS).map(|_| warm_up()).collect();
    let config = config(args);
    let exec = Executor::new(THREADS);

    let start = Instant::now();
    let result = fig7::run(args.seed, &config, &exec);
    let wall = start.elapsed().as_secs_f64();
    report.attempted = 1;

    let expected = match result {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("fig7::run failed: {e}");
            report.failed = 1;
            None
        }
    };

    if !args.trace {
        report.metric("setup_s", median(&setups));
        report.metric("wall_s", wall);
        report.metric(
            "peak_rss_mb",
            crate::report::peak_rss_mb("self").unwrap_or(0.0),
        );
        return;
    }

    // Traced replay of the same call.
    let lp_before = lp_counters();
    trace::enable();
    let mut placements = Vec::new();
    let traced_start = Instant::now();
    let replay = {
        let _root = trace::span("fig7.run");
        replay(args.seed, &config, &exec, &mut placements)
    };
    let traced_wall = traced_start.elapsed().as_secs_f64();
    let spans = trace::drain();
    let lp = lp_counters().since(&lp_before);
    let layers = trace::LayerTimes::from_spans(&spans);

    match (&expected, &replay) {
        (Some(e), Ok(r)) => report.check(to_json(e) == to_json(r), || {
            "traced replay result differs from fig7::run".into()
        }),
        (_, Err(e)) => report.violations.push(format!("traced replay failed: {e}")),
        (None, Ok(_)) => report
            .violations
            .push("traced replay succeeded where fig7::run failed".into()),
    }

    // Parity of the placement split with `random_placement` itself, on
    // both worker threads (nothing is timed any more).
    let parity = exec.map(placements.len(), |i| {
        let p = &placements[i];
        let mut rng = p.rng.clone();
        match random_placement(&p.graph, &PlacementConfig::default(), &mut rng) {
            Ok(r) if r.monitors() == p.monitors.as_slice() && r.paths() == p.paths.as_slice() => {
                None
            }
            Ok(_) => Some(format!(
                "placement split differs from random_placement ({})",
                p.label
            )),
            Err(e) => Some(format!("random_placement failed on {}: {e}", p.label)),
        }
    });
    report.violations.extend(parity.into_iter().flatten());
    report.check(!placements.is_empty(), || "no placement replayed".into());

    // The committed artifact: seed 42 at the default shape.
    match std::fs::read_to_string(ARTIFACT) {
        Ok(committed) => match fig7::run(ARTIFACT_SEED, &Fig7Config::default(), &exec) {
            Ok(r) => report.check(to_json(&r) == committed, || {
                format!("fig7::run seed {ARTIFACT_SEED} differs from {ARTIFACT}")
            }),
            Err(e) => report
                .violations
                .push(format!("fig7::run seed {ARTIFACT_SEED}: {e}")),
        },
        Err(e) => report.violations.push(format!("{ARTIFACT}: {e}")),
    }

    let rank_rows = layers.count("linalg.rank_try_add");
    let accepted = placements.iter().map(|p| p.accepted).sum::<u64>();
    report.metric("graph.yen_calls", layers.count("graph.yen") as f64);
    report.metric("linalg.rank_rows", rank_rows as f64);
    report.metric(
        "linalg.rank_accept_ratio",
        accepted as f64 / (rank_rows.max(1)) as f64,
    );
    report.metric("attack.trials", layers.count("attack.trial") as f64);
    lp.report(report);
    crate::report_trace(
        report,
        &layers,
        "fig7.run",
        traced_wall,
        (traced_wall, wall),
    );
}

/// Inputs and outputs of one replayed placement, kept for the parity
/// check against `random_placement`.
struct PlacementInput {
    label: String,
    graph: Graph,
    rng: ChaCha8Rng,
    monitors: Vec<NodeId>,
    paths: Vec<Path>,
    accepted: u64,
}

fn replay(
    seed: u64,
    config: &Fig7Config,
    exec: &Executor,
    log: &mut Vec<PlacementInput>,
) -> Result<Fig7Result, String> {
    let warm = warm_enabled().then(WarmStart::new);
    Ok(Fig7Result {
        seed,
        config: *config,
        wireline: replay_family(
            NetworkKind::Wireline,
            config,
            seed,
            exec,
            warm.as_ref(),
            log,
        )?,
        wireless: replay_family(
            NetworkKind::Wireless,
            config,
            seed,
            exec,
            warm.as_ref(),
            log,
        )?,
    })
}

/// `fig7::run_family`, one public call at a time.
fn replay_family(
    kind: NetworkKind,
    config: &Fig7Config,
    master_seed: u64,
    exec: &Executor,
    warm: Option<&WarmStart>,
    log: &mut Vec<PlacementInput>,
) -> Result<Fig7Series, String> {
    let scenario = AttackScenario::paper_defaults();
    let delay_model = params::default_delay_model();
    let mut trials: Vec<ChosenVictimTrial> = Vec::new();
    for s in 0..config.num_systems {
        let sys_seed = master_seed
            .wrapping_mul(1_000_003)
            .wrapping_add(s as u64)
            .wrapping_add(match kind {
                NetworkKind::Wireline => 0,
                NetworkKind::Wireless => 500_000,
            });
        let mut rng = ChaCha8Rng::seed_from_u64(sys_seed);
        let graph = trace::timed("graph.generate", || match kind {
            NetworkKind::Wireline => isp::generate(&isp::IspConfig::default(), &mut rng),
            NetworkKind::Wireless => rgg::RggConfig::default()
                .generate(&mut rng)
                .map(|t| t.graph),
        })
        .map_err(|e| format!("{kind} s{s}: generate: {e}"))?;
        let rng_before = rng.clone();
        let (system, accepted) = placement_split(&graph, &PlacementConfig::default(), &mut rng)
            .map_err(|e| format!("{kind} s{s}: placement: {e}"))?;
        log.push(PlacementInput {
            label: format!("{kind} s{s}"),
            graph,
            rng: rng_before,
            monitors: system.monitors().to_vec(),
            paths: system.paths().to_vec(),
            accepted,
        });
        trace::timed("core.estimator_warm", || system.warm_estimator_cache())
            .map_err(|e| format!("{kind} s{s}: estimator: {e}"))?;
        let trial_seed = sys_seed ^ 0xabcd_ef01;
        let outcomes = exec
            .try_map(config.trials_per_system, |t| {
                let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(trial_seed, t as u64));
                let k = rng.gen_range(1..=config.max_attackers.max(1));
                trace::timed("attack.trial", || {
                    chosen_victim_trial_detailed(
                        &system,
                        &scenario,
                        &delay_model,
                        k,
                        warm,
                        &mut rng,
                    )
                })
                .map(|d| d.map(|d| d.trial))
            })
            .map_err(|e| format!("{kind} s{s}: trial: {e}"))?;
        trials.extend(outcomes.into_iter().flatten());
    }
    Ok(Fig7Series {
        kind: kind.to_string(),
        bins: RatioBins::from_trials(&trials, config.bins),
        trials: trials.len(),
    })
}

/// `random_placement`, split at its public calls so each layer gets its
/// own span. Returns the system and the number of rows the rank test
/// accepted.
fn placement_split(
    graph: &Graph,
    config: &PlacementConfig,
    rng: &mut ChaCha8Rng,
) -> Result<(TomographySystem, u64), String> {
    let num_links = graph.num_links();
    if graph.num_nodes() < 2 || num_links == 0 {
        return Err("graph cannot host tomography".into());
    }
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.shuffle(rng);
    let budget = config.max_monitors.unwrap_or(graph.num_nodes());
    let mut monitors: Vec<NodeId> = Vec::new();
    let mut tracker = IncrementalRank::new(num_links);
    let mut chosen: Vec<Path> = Vec::new();
    let mut skipped: Vec<Path> = Vec::new();
    for &candidate in order.iter().take(budget) {
        for &existing in &monitors {
            let paths = trace::timed("graph.yen", || {
                shortest::yen_k_shortest(graph, existing, candidate, config.paths_per_pair)
            })
            .map_err(|e| e.to_string())?;
            for p in paths {
                let row = trace::timed("core.path_row", || path_row(&p, num_links));
                if trace::timed("linalg.rank_try_add", || tracker.try_add(&row)) {
                    chosen.push(p);
                } else {
                    skipped.push(p);
                }
            }
        }
        monitors.push(candidate);
        if tracker.is_full() {
            break;
        }
    }
    if !tracker.is_full() {
        return Err(format!("rank {}/{num_links}", tracker.rank()));
    }
    let accepted = chosen.len() as u64;
    let extra = ((num_links as f64) * config.redundancy_fraction).floor() as usize;
    chosen.extend(skipped.into_iter().take(extra));
    let system = trace::timed("core.system_new", || {
        TomographySystem::new(graph.clone(), monitors, chosen)
    })
    .map_err(|e| e.to_string())?;
    Ok((system, accepted))
}
