//! The committed workloads: one table, shared by `record` and
//! `regression`.
//!
//! Each entry runs its workload in-process through the `tomo_sim` APIs
//! and returns exact counts plus lower-is-better stage timings (seconds,
//! or µs for tails; throughput is the seconds a fixed batch count takes).
//! A run that breaks a correctness invariant returns an error. The
//! entry's checks are evaluated on the medians over all runs, so a single
//! noisy run cannot flip a ratio.

use std::time::Instant;

use tomo_par::Executor;
use tomo_sim::{chaos, fig7, incremental, scale, serve_load};

use crate::Record;

/// The seed every committed workload runs at.
pub const SEED: u64 = 42;

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Sample {
    /// Exact, deterministic counts: any change is workload drift.
    pub counts: Vec<(String, u64)>,
    /// Lower-is-better timings, in run order.
    pub stages: Vec<(String, f64)>,
}

impl Sample {
    fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.push((name.into(), value));
    }

    fn stage(&mut self, name: impl Into<String>, value: f64) {
        self.stages.push((name.into(), value));
    }
}

/// One assertion over a measured record.
pub struct Check {
    /// What was asserted, with the numbers behind the verdict.
    pub what: String,
    /// Whether it held.
    pub holds: bool,
}

fn check(holds: bool, what: String) -> Check {
    Check { what, holds }
}

/// Checks `record.median(num) <= limit * record.median(den)`.
fn ratio_at_most(record: &Record, num: &str, den: &str, limit: f64) -> Check {
    let (n, d) = (record.median(num), record.median(den));
    check(
        n <= limit * d,
        format!("{num} {n:.6} <= {limit} x {den} {d:.6}"),
    )
}

/// One committed workload.
pub struct Workload {
    /// File stem: the record lives in `BENCH_<name>.json`.
    pub name: &'static str,
    /// Runs the workload once.
    pub run: fn() -> Result<Sample, String>,
    /// Assertions over the medians of a measured record.
    pub checks: fn(&Record) -> Vec<Check>,
}

/// Every committed workload, in run order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig7-quick",
        run: fig7_quick,
        checks: |_| Vec::new(),
    },
    Workload {
        name: "lp-warm",
        run: lp_warm,
        checks: lp_warm_checks,
    },
    Workload {
        name: "chaos-overhead",
        run: chaos_overhead,
        checks: |r| vec![ratio_at_most(r, "machinery_s", "bypass_s", 1.10)],
    },
    Workload {
        name: "obs-overhead",
        run: obs_overhead,
        checks: |r| {
            vec![
                ratio_at_most(r, "traced_s", "untraced_s", 1.05),
                check(
                    r.count("trial_spans") >= r.count("trials"),
                    format!(
                        "{} trial spans for {} trials",
                        r.count("trial_spans"),
                        r.count("trials")
                    ),
                ),
            ]
        },
    },
    Workload {
        name: "scale",
        run: scale_sweep,
        checks: scale_checks,
    },
    Workload {
        name: "incremental",
        run: incremental_sweep,
        checks: incremental_checks,
    },
    Workload {
        name: "serve-load",
        run: serve_load_sweep,
        checks: serve_load_checks,
    },
];

/// Calls `f` `n` times and returns the last result: for calls too short
/// to time one at a time.
fn last_of<T>(n: usize, mut f: impl FnMut() -> T) -> T {
    for _ in 1..n {
        f();
    }
    f()
}

fn timed<T, E: std::fmt::Display>(f: impl FnOnce() -> Result<T, E>) -> Result<(T, f64), String> {
    let start = Instant::now();
    let out = f().map_err(|e| e.to_string())?;
    Ok((out, start.elapsed().as_secs_f64()))
}

/// `tomo-sim run fig7 --quick`: one system and 40 trials per family.
fn fig7_quick_config() -> fig7::Fig7Config {
    fig7::Fig7Config {
        num_systems: 1,
        trials_per_system: 40,
        ..fig7::Fig7Config::default()
    }
}

fn run_fig7_quick(threads: usize) -> Result<(fig7::Fig7Result, f64), String> {
    timed(|| fig7::run(SEED, &fig7_quick_config(), &Executor::new(threads)))
}

/// Runs `f` with the environment variable `key` set to `value` (removed
/// when `None`), restoring its prior value afterwards. The harness is
/// single-threaded between workloads, so no reader races the change.
fn with_env<T>(key: &str, value: Option<&str>, f: impl FnOnce() -> T) -> T {
    let prior = std::env::var(key).ok();
    match value {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    }
    let out = f();
    match prior {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    }
    out
}

/// Monte-Carlo throughput at one and two worker threads.
fn fig7_quick() -> Result<Sample, String> {
    let mut s = Sample::default();
    let mut trials = 0;
    for threads in [1, 2] {
        let (result, secs) = run_fig7_quick(threads)?;
        trials = (result.wireline.trials + result.wireless.trials) as u64;
        s.stage(format!("threads{threads}_s"), secs);
    }
    s.count("trials", trials);
    Ok(s)
}

/// Solves of the budget LP per timed sample: one solve is a few ms, too
/// short to time alone.
const BUDGET_SOLVES: usize = 10;

/// The LP basis cache: fig. 7 single-threaded with the cache off
/// (`TOMO_LP_WARM=0`) and forced on, then the smallest scale point's
/// budget LP solved cold and through a populated cache.
fn lp_warm() -> Result<Sample, String> {
    let mut s = Sample::default();
    for (tag, flag) in [("cold", "0"), ("warm", "force")] {
        tomo_obs::reset();
        let (_, secs) = with_env("TOMO_LP_WARM", Some(flag), || run_fig7_quick(1))?;
        let counters = tomo_obs::snapshot();
        let counter = |name: &str| counters.counter(name).unwrap_or(0);
        s.count(format!("{tag}_pivots"), counter("lp.simplex.pivots"));
        s.count(format!("{tag}_warm_hits"), counter("lp.simplex.warm.hits"));
        s.stage(format!("{tag}_s"), secs);
    }
    let lp = scale::budget_lp_workload(SEED, 1_000, 200).map_err(|e| e.to_string())?;
    let (cold, cold_s) = timed(|| last_of(BUDGET_SOLVES, || lp.solve()))?;
    let cache = tomo_lp::WarmStart::new();
    lp.solve_warm(&cache).map_err(|e| e.to_string())?;
    let (warm, warm_s) = timed(|| last_of(BUDGET_SOLVES, || lp.solve_warm(&cache)))?;
    let tol = 1e-6 * (1.0 + cold.objective_value().abs());
    if !cold.is_optimal()
        || !warm.is_optimal()
        || (warm.objective_value() - cold.objective_value()).abs() > tol
    {
        return Err(format!(
            "budget LP: warm {:?} objective {} vs cold {:?} objective {}",
            warm.status(),
            warm.objective_value(),
            cold.status(),
            cold.objective_value()
        ));
    }
    s.stage("budget_cold_s", cold_s);
    s.stage("budget_warm_s", warm_s);
    Ok(s)
}

fn lp_warm_checks(r: &Record) -> Vec<Check> {
    let (cold, warm) = (r.count("cold_pivots"), r.count("warm_pivots"));
    vec![
        check(
            warm < cold,
            format!("warm pivots {warm} < cold pivots {cold}"),
        ),
        check(
            r.count("warm_warm_hits") >= 1,
            format!("forced cache hits {}", r.count("warm_warm_hits")),
        ),
        ratio_at_most(r, "budget_warm_s", "budget_cold_s", 1.5),
    ]
}

/// Times `side(false)` (A) and `side(true)` (B) in A-B-B-A order and
/// returns each side's summed seconds. In a fixed A-then-B order the
/// second run of a pair is measurably slower (a warm-up/drift effect of
/// several percent), which alone would decide a 5% overhead check;
/// mirrored order cancels it.
fn abba(mut side: impl FnMut(bool) -> Result<f64, String>) -> Result<(f64, f64), String> {
    let a1 = side(false)?;
    let b1 = side(true)?;
    let b2 = side(true)?;
    let a2 = side(false)?;
    Ok((a1 + a2, b1 + b2))
}

/// Chaos runs per timed sample: one `--quick` run is a few ms.
const CHAOS_RUNS: usize = 20;

/// The fault layer at rate zero against the `TOMO_FAULT=0` bypass; both
/// must produce the same result.
fn chaos_overhead() -> Result<Sample, String> {
    let spec = tomo_fault::FaultSpec::default();
    let config = chaos::ChaosConfig::quick();
    let exec = Executor::new(1);
    let mut results = Vec::new();
    let (bypass_s, machinery_s) = abba(|machinery| {
        let fault_layer = if machinery { None } else { Some("0") };
        let (result, secs) = with_env("TOMO_FAULT", fault_layer, || {
            timed(|| last_of(CHAOS_RUNS, || chaos::run(SEED, &spec, &config, &exec)))
        })?;
        results.push(result);
        Ok(secs)
    })?;
    let json = |r: &chaos::ChaosResult| serde_json::to_string(r).map_err(|e| e.to_string());
    let first = json(&results[0])?;
    for r in &results[1..] {
        if json(r)? != first {
            return Err("result differs between TOMO_FAULT=0 and rate zero".into());
        }
    }
    let mut s = Sample::default();
    s.count(
        "trials",
        results[0].points.iter().map(|p| p.trials as u64).sum(),
    );
    s.count("injected", results[0].totals.injected);
    s.stage("bypass_s", bypass_s);
    s.stage("machinery_s", machinery_s);
    Ok(s)
}

/// Fig. 7 single-threaded, untraced and with span/provenance tracing.
fn obs_overhead() -> Result<Sample, String> {
    let mut trials = 0;
    let mut trial_spans = usize::MAX;
    let (untraced_s, traced_s) = abba(|traced| {
        if !traced {
            return run_fig7_quick(1).map(|(_, secs)| secs);
        }
        tomo_obs::reset_journal();
        tomo_obs::set_tracing(true);
        let out = run_fig7_quick(1);
        tomo_obs::set_tracing(false);
        let (result, secs) = out?;
        trials = (result.wireline.trials + result.wireless.trials) as u64;
        let spans = tomo_obs::journal_snapshot()
            .events
            .iter()
            .filter(|e| matches!(e, tomo_obs::TraceEvent::Span { name, .. } if name == "trial"))
            .count();
        trial_spans = trial_spans.min(spans);
        tomo_obs::reset_journal();
        Ok(secs)
    })?;
    let mut s = Sample::default();
    s.count("trials", trials);
    s.count("trial_spans", trial_spans as u64);
    s.stage("untraced_s", untraced_s);
    s.stage("traced_s", traced_s);
    Ok(s)
}

/// The 10k-link `TomographySystem` build before the sparse Gram
/// factorization: dense Gram assembly feeding a dense Cholesky.
const BUILD_10K_BEFORE_S: f64 = 256.534_226;

/// The full Rocketfuel-scale sweep (1k–10k links). Per point: sparse
/// kernels (Gram + revised simplex), the full system build, and the
/// dense baselines where they still run.
fn scale_sweep() -> Result<Sample, String> {
    tomo_obs::reset();
    let result = scale::run(SEED, &scale::ScaleConfig::default()).map_err(|e| e.to_string())?;
    let counters = tomo_obs::snapshot();
    let mut s = Sample::default();
    s.count(
        "sparse_kernels",
        counters.counter("core.kernel.sparse").unwrap_or(0),
    );
    s.count(
        "revised_solves",
        counters.counter("lp.simplex.revised.solves").unwrap_or(0),
    );
    for p in &result.points {
        let at = p.target_links;
        s.count(format!("p{at}.links"), p.links as u64);
        s.count(format!("p{at}.paths"), p.paths as u64);
        s.count(format!("p{at}.gram_nnz"), p.gram_nnz as u64);
        s.count(format!("p{at}.lp_pivots"), p.lp_revised_pivots);
        s.stage(
            format!("p{at}.kernels_s"),
            p.gram_sparse_seconds + p.lp_revised_seconds,
        );
        if let Some(build) = p.system_build_seconds {
            s.stage(format!("p{at}.build_s"), build);
        }
        if let (Some(gram), Some(lp)) = (p.gram_dense_seconds, p.lp_dense_seconds) {
            s.stage(format!("p{at}.dense_s"), gram + lp);
        }
    }
    Ok(s)
}

fn scale_checks(r: &Record) -> Vec<Check> {
    let mut checks = vec![check(
        r.count("sparse_kernels") >= 1 && r.count("revised_solves") >= 1,
        format!(
            "sweep used the sparse kernel ({}) and the revised simplex ({})",
            r.count("sparse_kernels"),
            r.count("revised_solves")
        ),
    )];
    // The largest point where the dense baselines still run.
    let largest_dense = r
        .stages
        .iter()
        .rev()
        .find_map(|(n, _)| n.strip_suffix(".dense_s"));
    checks.push(match largest_dense {
        Some(at) => ratio_at_most(
            r,
            &format!("{at}.kernels_s"),
            &format!("{at}.dense_s"),
            1.0 / 3.0,
        ),
        None => check(false, "no point ran the dense baselines".into()),
    });
    let build = r.median("p10000.build_s");
    checks.push(check(
        build * 2.0 <= BUILD_10K_BEFORE_S,
        format!("10k system build {build:.3}s at least 2x under {BUILD_10K_BEFORE_S}s"),
    ));
    checks
}

/// Cold rebuild vs rank-1 delta per add/drop event, at 1k and 5k links.
fn incremental_sweep() -> Result<Sample, String> {
    let result = incremental::run(SEED, &incremental::IncrementalConfig::default())
        .map_err(|e| e.to_string())?;
    let mut s = Sample::default();
    for p in &result.points {
        let at = p.target_links;
        s.count(format!("p{at}.links"), p.links as u64);
        s.count(format!("p{at}.paths"), p.paths as u64);
        s.count(format!("p{at}.events"), p.events as u64);
        s.count(format!("p{at}.cores"), p.cores as u64);
        s.stage(format!("p{at}.cold_s"), p.cold_rebuild_seconds);
        s.stage(format!("p{at}.incremental_s"), p.incremental_seconds);
    }
    Ok(s)
}

fn incremental_checks(r: &Record) -> Vec<Check> {
    let mut checks = vec![ratio_at_most(
        r,
        "p5000.incremental_s",
        "p5000.cold_s",
        1.0 / 5.0,
    )];
    for (name, cores) in r.counts.iter().filter(|(n, _)| n.ends_with(".cores")) {
        checks.push(check(
            *cores == 1,
            format!("{name} = {cores}: the delta kernels are single-threaded"),
        ));
    }
    checks
}

/// The multi-client daemon sweep (1, 4, 16, 64 clients × 16384
/// batches). The sweep itself fails on a lost batch, a fleet whose final
/// state differs from the single-client reference, or a busted SLO.
fn serve_load_sweep() -> Result<Sample, String> {
    let result = serve_load::run(SEED, &serve_load::ServeLoadConfig::default())
        .map_err(|e| e.to_string())?;
    let mut s = Sample::default();
    for p in &result.points {
        let c = p.clients;
        s.count(format!("c{c}.batches"), p.batches);
        s.stage(format!("c{c}.ingest_s"), p.elapsed_s);
        s.stage(format!("c{c}.query_p99_us"), p.query_p99_us);
    }
    Ok(s)
}

/// The 16-client fleet must sustain this many batches per second.
const SERVE_LOAD_FLOOR_PER_S: f64 = 80_000.0;

fn serve_load_checks(r: &Record) -> Vec<Check> {
    let config = serve_load::ServeLoadConfig::default();
    let slo_us = config.slo_ms * 1000.0;
    let mut checks: Vec<Check> = r
        .stages
        .iter()
        .filter(|(n, _)| n.ends_with(".query_p99_us"))
        .map(|(n, s)| {
            check(
                s.median < slo_us,
                format!("{n} {:.1} < SLO {slo_us}", s.median),
            )
        })
        .collect();
    let ingest = r.median("c16.ingest_s");
    let ceiling = config.batches_total as f64 / SERVE_LOAD_FLOOR_PER_S;
    checks.push(check(
        ingest <= ceiling,
        format!("c16.ingest_s {ingest:.4} <= {ceiling:.4} (>= 80k batches/s)"),
    ));
    checks
}
