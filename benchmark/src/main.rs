//! One benchmark for the paper pipeline and the `tomo-serve` daemon.
//!
//! ```text
//! tomo-perfbench --workload <fig7-montecarlo|detect-wireline|serve-rocketfuel>
//!                --seed N --seconds S --trace <0|1> [--serve-bin PATH]
//! ```
//!
//! Run from the repository root (it reads `artifacts/` and
//! `tests/fixtures/`). The last stdout line is the JSON result; the exit
//! code is non-zero when any correctness or parity check fails. See
//! `benchmark/README.md` for the workloads, metrics and predictions.

mod detect;
mod fig7;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;

use report::Report;

/// Share of the traced wall time that layer self times may leave
/// unexplained (the `wall_s` bound in `BENCHMARK.json`).
const BOOKKEEPING_BOUND: f64 = 0.25;

/// Metrics of an untraced run (`--trace 0`), as `(name, unit)`; every
/// workload reports each of them. Mirrors `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Metrics of a traced run (`--trace 1`); a layer the workload does not
/// reach reads 0. Mirrors `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("error_rate", "ratio"),
    ("cores", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_ratio", "ratio"),
    // fig7-montecarlo: placement, estimator, trials.
    ("graph.generate_s", "s"),
    ("graph.yen_s", "s"),
    ("graph.yen_calls", "count"),
    ("core.path_row_s", "s"),
    ("linalg.rank_try_add_s", "s"),
    ("linalg.rank_rows", "count"),
    ("linalg.rank_accept_ratio", "ratio"),
    ("core.system_new_s", "s"),
    ("core.estimator_warm_s", "s"),
    ("attack.trial_s", "s"),
    ("attack.trials", "count"),
    // detect-wireline: the rational attacker's LPs and the detector.
    ("attack.chosen_victim.stealthy_s", "s"),
    ("attack.chosen_victim.plain_s", "s"),
    ("attack.max_damage.stealthy_s", "s"),
    ("attack.max_damage.plain_s", "s"),
    ("attack.obfuscation.stealthy_s", "s"),
    ("attack.obfuscation.plain_s", "s"),
    ("attack.attackers_s", "s"),
    ("attack.cut_s", "s"),
    ("core.measure_s", "s"),
    ("detect.tally_s", "s"),
    ("detect.rescores", "count"),
    ("detect.trials", "count"),
    ("detect.wall_tail_q", "ratio"),
    ("detect.wall_tail_s", "s"),
    // Both paper workloads: the LP solver's own counters.
    ("lp.solves", "count"),
    ("lp.iterations", "count"),
    ("lp.pivots", "count"),
    ("lp.iterations_per_solve", "ratio"),
    ("lp.iteration_limit_errors", "count"),
    // serve-rocketfuel: what a daemon user sees ...
    ("ingest_batches_per_s", "1/s"),
    ("ack_window_p50_us", "us"),
    ("ack_window_p99_us", "us"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("recovery_s", "s"),
    // ... and the layers under it.
    ("client.batch_rows_s", "s"),
    ("client.queue_full_rejects", "count"),
    ("client.reconnects", "count"),
    ("serve.wire.encode_s", "s"),
    ("serve.wire.decode_s", "s"),
    ("serve.wire.bytes", "bytes"),
    ("serve.queue.push_s", "s"),
    ("serve.queue.pop_s", "s"),
    ("serve.queue.rejects", "count"),
    ("serve.journal.append_s", "s"),
    ("serve.journal.bytes", "bytes"),
    ("serve.journal.replay_s", "s"),
    ("serve.journal.replay_frames", "count"),
    ("serve.engine.admits_s", "s"),
    ("serve.engine.apply_s", "s"),
    ("serve.engine.applied", "count"),
    ("serve.engine.deduped", "count"),
    ("serve.engine.restore_s", "s"),
    ("serve.snapshot.publish_s", "s"),
    ("serve.snapshot.versions", "count"),
    ("serve.snapshot.batches_per_publish", "ratio"),
    ("serve.snapshot.answer_cold_s", "s"),
    ("serve.snapshot.answer_warm_s", "s"),
    ("serve.http.overhead_us", "us"),
    ("loadgen.late_max_ms", "ms"),
    ("loadgen.queries", "count"),
    ("loadgen.windows", "count"),
    ("loadgen.cycles", "count"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_bin: std::path::PathBuf::from(".bench_build/release/tomo-serve"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("{flag}: {value:?}"))?
            }
            "--trace" => args.trace = value == "1",
            "--serve-bin" => args.serve_bin = value.clone().into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Snapshot of the LP solver's process-wide counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LpCounters {
    solves: u64,
    iterations: u64,
    pivots: u64,
}

pub fn lp_counters() -> LpCounters {
    LpCounters {
        solves: tomo_obs::counter("lp.simplex.solves").get(),
        iterations: tomo_obs::counter("lp.simplex.iterations").get(),
        pivots: tomo_obs::counter("lp.simplex.pivots").get(),
    }
}

impl LpCounters {
    pub fn since(&self, before: &LpCounters) -> LpCounters {
        LpCounters {
            solves: self.solves - before.solves,
            iterations: self.iterations - before.iterations,
            pivots: self.pivots - before.pivots,
        }
    }

    pub fn report(&self, report: &mut Report) {
        report.metric("lp.solves", self.solves as f64);
        report.metric("lp.iterations", self.iterations as f64);
        report.metric("lp.pivots", self.pivots as f64);
        report.metric(
            "lp.iterations_per_solve",
            self.iterations as f64 / self.solves.max(1) as f64,
        );
    }
}

/// Reports each span name's self time as `<name>_s`, the traced wall
/// time, the tracing overhead (traced minus untraced wall time of the same
/// work), and the sum of the layer self times (every span but `root`) over
/// `traced_total`, the wall time of all traced work. Fails the run when
/// that sum misses `traced_total` by more than [`BOOKKEEPING_BOUND`] of it.
pub fn report_trace(
    report: &mut Report,
    layers: &trace::LayerTimes,
    root: &str,
    traced_total: f64,
    (traced_wall, untraced_wall): (f64, f64),
) {
    for (name, self_s) in layers.iter() {
        report.metric(&format!("{name}_s"), self_s);
    }
    let explained = layers.sum_except(root) / traced_total;
    report.metric("trace.wall_s", traced_wall);
    report.metric("trace.overhead_s", traced_wall - untraced_wall);
    report.metric("trace.self_sum_ratio", explained);
    report.metric("cores", report::cores() as f64);
    report.metric(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.check((explained - 1.0).abs() <= BOOKKEEPING_BOUND, || {
        format!("layer self times explain {explained:.3} of the traced wall time")
    });
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tomo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "fig7-montecarlo" => fig7::run(&args, &mut report),
        "detect-wireline" => detect::run(&args, &mut report),
        "serve-rocketfuel" => serve::run(&args, &mut report),
        other => {
            eprintln!("tomo-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    }
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in spec {
        let ok = report.value(name).is_some() || args.trace;
        report.check(ok, || format!("{name} was not measured"));
    }
    eprint!("{}", report.summary());
    for v in &report.violations {
        eprintln!("check failed: {v}");
    }
    println!("{}", report.to_json(spec));
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .split_whitespace()
            .collect();
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\":[")).expect("section present");
            let rest = &json[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = section(key);
            for (name, unit) in table {
                let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
                assert!(listed.contains(&entry), "{key} lacks {name} [{unit}]");
            }
            assert_eq!(
                listed.matches("\"name\":").count(),
                table.len(),
                "{key} has extra entries"
            );
        }
    }
}
