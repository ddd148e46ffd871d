//! `tomo-bench` — records and gates the committed `BENCH_*.json`
//! baselines.
//!
//! ```text
//! tomo-bench record     [--dir DIR] [--runs N]
//! tomo-bench regression [--dir DIR] [--threshold FRAC] [--runs N]
//! ```
//!
//! Every committed workload is one entry of [`workloads::WORKLOADS`]: a
//! function that runs it in-process and returns exact counts plus named
//! lower-is-better stage timings, and a set of checks over the measured
//! medians. Both subcommands run the same entries `--runs` times (default
//! 5) and summarize each into a [`Record`]:
//!
//! ```text
//! {workload, seed, cores, runs, counts: {name: int},
//!  stages: {name: {median, min, max}}, total: {median, min, max}}
//! ```
//!
//! `record` writes each record to `DIR/BENCH_<workload>.json` (default
//! `DIR`: the current directory). `regression` re-measures every
//! workload whose file is present and applies one rule to all of them:
//! the counts must match exactly (otherwise "workload drift"), every check
//! must hold, and each stage and total median must stay at or below the
//! committed `max × (1 + FRAC)` (default 0.15). A file recorded on more
//! cores than this machine has is skipped.

mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;

use workloads::{Workload, SEED, WORKLOADS};

const DEFAULT_THRESHOLD: f64 = 0.15;
const DEFAULT_RUNS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Record,
    Regression,
}

struct Options {
    command: Command,
    dir: PathBuf,
    threshold: f64,
    runs: usize,
}

fn usage() -> String {
    "usage:\n  tomo-bench record     [--dir DIR] [--runs N]\n  \
     tomo-bench regression [--dir DIR] [--threshold FRAC] [--runs N]\n\n\
     record runs every workload N times (default 5) and writes\n\
     DIR/BENCH_<workload>.json. regression re-runs each committed file's\n\
     workload and fails on count drift, a failed check, or a median above\n\
     the committed max x (1 + FRAC) (default 0.15). Files recorded on more\n\
     cores than available are skipped."
        .to_string()
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let command = match argv.first().map(String::as_str) {
        Some("record") => Command::Record,
        Some("regression") => Command::Regression,
        _ => return Err(usage()),
    };
    let mut opts = Options {
        command,
        dir: PathBuf::from("."),
        threshold: DEFAULT_THRESHOLD,
        runs: DEFAULT_RUNS,
    };
    let mut i = 1;
    while i < argv.len() {
        let value = || argv.get(i + 1).ok_or(format!("{} needs a value", argv[i]));
        match argv[i].as_str() {
            "--dir" => opts.dir = PathBuf::from(value()?),
            "--threshold" if command == Command::Regression => {
                let v = value()?;
                let frac: f64 = v.parse().map_err(|_| format!("bad threshold {v:?}"))?;
                if !(0.0..1.0).contains(&frac) {
                    return Err("--threshold must be in [0, 1)".to_string());
                }
                opts.threshold = frac;
            }
            "--runs" => {
                let v = value()?;
                let n: usize = v.parse().map_err(|_| format!("bad run count {v:?}"))?;
                if n == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
                opts.runs = n;
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
        i += 2;
    }
    Ok(opts)
}

/// Median, minimum and maximum of one lower-is-better timing over runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Spread {
            median,
            min: sorted[0],
            max: sorted[n - 1],
        }
    }

    fn to_value(self) -> Value {
        Value::Object(vec![
            ("median".into(), Value::Float(self.median)),
            ("min".into(), Value::Float(self.min)),
            ("max".into(), Value::Float(self.max)),
        ])
    }

    fn from_value(v: &Value, what: &str) -> Result<Spread, String> {
        let field = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{what}: missing numeric {key:?}"))
        };
        Ok(Spread {
            median: field("median")?,
            min: field("min")?,
            max: field("max")?,
        })
    }
}

/// One workload measured `runs` times: the single `BENCH_*.json` schema.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    workload: String,
    seed: u64,
    cores: u64,
    runs: u64,
    counts: Vec<(String, u64)>,
    stages: Vec<(String, Spread)>,
    total: Spread,
}

impl Record {
    fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    fn median(&self, stage: &str) -> f64 {
        self.stages
            .iter()
            .find(|(n, _)| n == stage)
            .map_or(f64::NAN, |(_, s)| s.median)
    }

    fn to_json(&self) -> String {
        let root = Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::UInt(self.seed)),
            ("cores".into(), Value::UInt(self.cores)),
            ("runs".into(), Value::UInt(self.runs)),
            (
                "counts".into(),
                Value::Object(
                    self.counts
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "stages".into(),
                Value::Object(
                    self.stages
                        .iter()
                        .map(|(n, s)| (n.clone(), s.to_value()))
                        .collect(),
                ),
            ),
            ("total".into(), self.total.to_value()),
        ]);
        let mut text = serde_json::to_string_pretty(&root).expect("tree-shaped JSON");
        text.push('\n');
        text
    }

    fn load(path: &Path) -> Result<Record, String> {
        let what = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {what}: {e}"))?;
        let root = serde_json::parse_value(&text).map_err(|e| format!("{what}: {e}"))?;
        let field = |key: &str| {
            root.get(key)
                .ok_or_else(|| format!("{what}: missing {key:?}"))
        };
        let uint = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("{what}: {key:?} is not a non-negative integer"))
        };
        let object = |key: &str| {
            field(key)?
                .as_object()
                .ok_or_else(|| format!("{what}: {key:?} is not an object"))
        };
        Ok(Record {
            workload: field("workload")?
                .as_str()
                .ok_or_else(|| format!("{what}: \"workload\" is not a string"))?
                .to_string(),
            seed: uint("seed")?,
            cores: uint("cores")?,
            runs: uint("runs")?,
            counts: object("counts")?
                .iter()
                .map(|(n, v)| {
                    v.as_u64()
                        .map(|c| (n.clone(), c))
                        .ok_or_else(|| format!("{what}: count {n:?} is not an integer"))
                })
                .collect::<Result<_, _>>()?,
            stages: object("stages")?
                .iter()
                .map(|(n, v)| Ok((n.clone(), Spread::from_value(v, &format!("{what} {n}"))?)))
                .collect::<Result<_, String>>()?,
            total: Spread::from_value(field("total")?, &format!("{what} total"))?,
        })
    }
}

/// Runs every workload `runs` times, round-robin, and summarizes each
/// into a record. Round-robin spreads a short workload's runs over the
/// whole measurement instead of one burst of a few seconds, so its
/// recorded spread includes the machine's drift over that window, which
/// a later regression run meets too.
fn measure(workloads: &[&Workload], runs: usize, cores: u64) -> Result<Vec<Record>, String> {
    let mut samples: Vec<Vec<(workloads::Sample, f64)>> =
        workloads.iter().map(|_| Vec::with_capacity(runs)).collect();
    for _ in 0..runs {
        for (workload, out) in workloads.iter().zip(&mut samples) {
            let start = Instant::now();
            let sample = (workload.run)().map_err(|e| format!("{}: {e}", workload.name))?;
            out.push((sample, start.elapsed().as_secs_f64()));
        }
    }
    workloads
        .iter()
        .zip(&samples)
        .map(|(workload, runs)| summarize(workload, runs, cores))
        .collect()
}

/// Folds one workload's runs into a record; counts and stage names must
/// agree between runs.
fn summarize(
    workload: &Workload,
    runs: &[(workloads::Sample, f64)],
    cores: u64,
) -> Result<Record, String> {
    let first = &runs[0].0;
    for (s, _) in &runs[1..] {
        let same_stages = s
            .stages
            .iter()
            .map(|(n, _)| n)
            .eq(first.stages.iter().map(|(n, _)| n));
        if s.counts != first.counts || !same_stages {
            return Err(format!(
                "{}: counts or stages differ between runs",
                workload.name
            ));
        }
    }
    let totals: Vec<f64> = runs.iter().map(|&(_, t)| t).collect();
    Ok(Record {
        workload: workload.name.to_string(),
        seed: SEED,
        cores,
        runs: runs.len() as u64,
        counts: first.counts.clone(),
        stages: first
            .stages
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                let values: Vec<f64> = runs.iter().map(|(s, _)| s.stages[i].1).collect();
                (name.clone(), Spread::of(&values))
            })
            .collect(),
        total: Spread::of(&totals),
    })
}

/// One gated number: a fresh median against the committed ceiling.
#[derive(Debug)]
struct Bound {
    name: String,
    median: f64,
    ceiling: f64,
}

impl Bound {
    fn holds(&self) -> bool {
        self.median <= self.ceiling
    }
}

/// `Some(reason)` when `committed` was recorded on more cores than this
/// machine has: its timings are not comparable here.
fn skip_reason(committed: &Record, available: u64) -> Option<String> {
    (committed.cores > available)
        .then(|| format!("recorded on {} cores, have {available}", committed.cores))
}

/// The one regression rule: seed and counts match exactly (else workload
/// drift), and every committed stage and the total bound its fresh
/// median by `max × (1 + threshold)`.
fn gate(committed: &Record, fresh: &Record, threshold: f64) -> Result<Vec<Bound>, String> {
    if (fresh.seed, &fresh.counts) != (committed.seed, &committed.counts) {
        return Err(format!(
            "{}: workload drift: committed seed {} counts {:?}, re-run seed {} counts {:?}",
            committed.workload, committed.seed, committed.counts, fresh.seed, fresh.counts
        ));
    }
    let bound = |name: &str, spread: &Spread, median: f64| Bound {
        name: name.to_string(),
        median,
        ceiling: spread.max * (1.0 + threshold),
    };
    let mut bounds = Vec::with_capacity(committed.stages.len() + 1);
    for (name, spread) in &committed.stages {
        let median = fresh.median(name);
        if median.is_nan() {
            return Err(format!(
                "{}: workload drift: stage {name:?} no longer measured",
                committed.workload
            ));
        }
        bounds.push(bound(name, spread, median));
    }
    bounds.push(bound("total", &committed.total, fresh.total.median));
    Ok(bounds)
}

fn bench_file(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("BENCH_{workload}.json"))
}

/// Prints the checks of `record`; returns `true` when one fails.
fn report_checks(workload: &Workload, record: &Record) -> bool {
    let mut failed = false;
    for check in (workload.checks)(record) {
        println!(
            "  check {}: {}",
            if check.holds { "ok" } else { "FAIL" },
            check.what
        );
        failed |= !check.holds;
    }
    failed
}

fn record_all(opts: &Options, cores: u64) -> Result<bool, String> {
    let all: Vec<&Workload> = WORKLOADS.iter().collect();
    let mut failed = false;
    for (workload, record) in all.iter().zip(measure(&all, opts.runs, cores)?) {
        println!(
            "{}: total median {:.3}s over {} runs",
            workload.name, record.total.median, record.runs
        );
        if report_checks(workload, &record) {
            failed = true;
            continue;
        }
        let path = bench_file(&opts.dir, workload.name);
        std::fs::write(&path, record.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  wrote {}", path.display());
    }
    Ok(failed)
}

fn regression_all(opts: &Options, cores: u64) -> Result<bool, String> {
    let mut gated = Vec::new();
    for workload in WORKLOADS {
        let path = bench_file(&opts.dir, workload.name);
        if !path.exists() {
            println!("{}: SKIP ({} not present)", workload.name, path.display());
            continue;
        }
        let committed = Record::load(&path)?;
        if committed.workload != workload.name {
            return Err(format!(
                "{} records workload {:?}",
                path.display(),
                committed.workload
            ));
        }
        match skip_reason(&committed, cores) {
            Some(reason) => println!("{}: SKIP ({reason})", workload.name),
            None => gated.push((workload, committed)),
        }
    }
    let workloads: Vec<&Workload> = gated.iter().map(|&(w, _)| w).collect();
    let fresh = measure(&workloads, opts.runs, cores)?;
    let mut failed = false;
    for ((workload, committed), fresh) in gated.iter().zip(&fresh) {
        println!("{}:", workload.name);
        for b in gate(committed, fresh, opts.threshold)? {
            println!(
                "  {}: median {:.6} vs ceiling {:.6} — {}",
                b.name,
                b.median,
                b.ceiling,
                if b.holds() { "ok" } else { "FAIL" }
            );
            failed |= !b.holds();
        }
        failed |= report_checks(workload, fresh);
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&argv) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as u64;
    let (name, outcome) = match opts.command {
        Command::Record => ("record", record_all(&opts, cores)),
        Command::Regression => ("regression", regression_all(&opts, cores)),
    };
    match outcome {
        Ok(false) => {
            println!("tomo-bench {name}: ok");
            ExitCode::SUCCESS
        }
        Ok(true) => {
            eprintln!("tomo-bench {name}: a check or bound failed (see FAIL lines)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("tomo-bench {name}: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    fn spread(median: f64, min: f64, max: f64) -> Spread {
        Spread { median, min, max }
    }

    fn record(cores: u64, counts: &[(&str, u64)], stage_median: f64) -> Record {
        Record {
            workload: "fig7-quick".into(),
            seed: SEED,
            cores,
            runs: 5,
            counts: counts.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            stages: vec![("threads1_s".into(), spread(stage_median, 0.9, 1.0))],
            total: spread(stage_median, 0.9, 1.0),
        }
    }

    fn temp_file(name: &str, body: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("tomo-bench-{}-{name}.json", std::process::id()));
        std::fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn requires_the_regression_subcommand() {
        assert!(parse_options(&argv(&[])).is_err());
        assert!(parse_options(&argv(&["bench"])).is_err());
        assert_eq!(
            parse_options(&argv(&["regression"])).unwrap().command,
            Command::Regression
        );
        assert_eq!(
            parse_options(&argv(&["record"])).unwrap().command,
            Command::Record
        );
    }

    #[test]
    fn flags_are_validated() {
        let o = parse_options(&argv(&[
            "regression",
            "--dir",
            "baselines",
            "--threshold",
            "0.2",
            "--runs",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.dir, PathBuf::from("baselines"));
        assert!((o.threshold - 0.2).abs() < 1e-12);
        assert_eq!(o.runs, 1);
        assert!(parse_options(&argv(&["regression", "--threshold", "1.5"])).is_err());
        assert!(parse_options(&argv(&["regression", "--runs", "0"])).is_err());
        assert!(parse_options(&argv(&["regression", "--runs"])).is_err());
        assert!(parse_options(&argv(&["regression", "--nope"])).is_err());
        assert!(parse_options(&argv(&["record", "--threshold", "0.2"])).is_err());
    }

    #[test]
    fn spread_takes_the_middle_and_the_extremes() {
        assert_eq!(Spread::of(&[3.0, 1.0, 2.0]), spread(2.0, 1.0, 3.0));
        assert_eq!(Spread::of(&[4.0, 1.0, 2.0, 3.0]), spread(2.5, 1.0, 4.0));
    }

    #[test]
    fn record_round_trips_through_the_schema() {
        let mut r = record(2, &[("trials", 80), ("pivots", 1720)], 0.95);
        r.stages
            .push(("c1.query_p99_us".into(), spread(17.127, 9.5, 31.0)));
        let path = temp_file("roundtrip", &r.to_json());
        assert_eq!(Record::load(&path).unwrap(), r);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn baseline_rejects_missing_fields() {
        let good = record(1, &[("trials", 80)], 0.95).to_json();
        let missing = good.replace("\"runs\"", "\"rounds\"");
        let path = temp_file("missing", &missing);
        assert!(Record::load(&path).unwrap_err().contains("\"runs\""));
        let non_numeric = good.replacen("\"median\": 0.95", "\"median\": \"fast\"", 1);
        assert_ne!(non_numeric, good);
        std::fs::write(&path, non_numeric).unwrap();
        assert!(Record::load(&path).unwrap_err().contains("threads1_s"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn baseline_parses_committed_shape() {
        // Every workload has a committed baseline at the repository root,
        // and every committed baseline loads in the one schema.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for w in WORKLOADS {
            let r = Record::load(&bench_file(&root, w.name)).unwrap();
            assert_eq!(r.workload, w.name);
            assert_eq!(r.seed, SEED);
            assert!(r.runs >= 5 && r.cores >= 1, "{}", w.name);
            assert!(!r.counts.is_empty() && !r.stages.is_empty(), "{}", w.name);
            for (name, s) in &r.stages {
                assert!(s.min <= s.median && s.median <= s.max, "{} {name}", w.name);
            }
        }
        let committed = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .count();
        assert_eq!(
            committed,
            WORKLOADS.len(),
            "a BENCH_*.json outside the table"
        );
    }

    fn committed(workload: &str) -> PathBuf {
        bench_file(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
            workload,
        )
    }

    /// The value under `path` in a JSON object tree.
    fn entry_mut<'a>(mut v: &'a mut Value, path: &[&str]) -> &'a mut Value {
        for key in path {
            let Value::Object(fields) = v else {
                panic!("{key:?} is not under an object")
            };
            v = &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        v
    }

    /// A copy of a committed baseline, edited, written to a temp file.
    fn doctored(workload: &str, tag: &str, edit: impl FnOnce(&mut Value)) -> PathBuf {
        let text = std::fs::read_to_string(committed(workload)).unwrap();
        let mut root = serde_json::parse_value(&text).unwrap();
        edit(&mut root);
        temp_file(tag, &serde_json::to_string_pretty(&root).unwrap())
    }

    fn drop_field(v: &mut Value, key: &str) {
        let Value::Object(fields) = v else {
            panic!("not an object")
        };
        fields.retain(|(k, _)| k != key);
    }

    #[test]
    fn scale_baseline_parses_committed_shape() {
        let r = Record::load(&committed("scale")).unwrap();
        assert_eq!(r.workload, "scale");
        for links in [1_000, 2_000, 5_000, 10_000] {
            assert_eq!(r.count(&format!("p{links}.links")), links);
            assert_eq!(r.count(&format!("p{links}.paths")), links + 2_000);
            for stage in ["kernels_s", "build_s"] {
                assert!(
                    r.median(&format!("p{links}.{stage}")) > 0.0,
                    "p{links}.{stage}"
                );
            }
        }
        // The sparse-vs-dense check needs the dense timing where it runs.
        assert!(r.median("p1000.dense_s") > 0.0);
    }

    #[test]
    fn scale_baseline_rejects_missing_fields() {
        let path = doctored("scale", "scale-missing", |root| drop_field(root, "counts"));
        assert!(Record::load(&path).unwrap_err().contains("\"counts\""));
        std::fs::remove_file(&path).ok();
        let path = doctored("scale", "scale-stage", |root| {
            drop_field(entry_mut(root, &["stages", "p1000.kernels_s"]), "median");
        });
        let err = Record::load(&path).unwrap_err();
        assert!(
            err.contains("p1000.kernels_s") && err.contains("\"median\""),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_baseline_parses_committed_shape() {
        // The single-client daemon baseline (ingest beside concurrent
        // queries under the SLO) is the 1-client point of serve-load.
        let config = tomo_sim::serve_load::ServeLoadConfig::default();
        let r = Record::load(&committed("serve-load")).unwrap();
        assert_eq!(r.count("c1.batches"), config.batches_total as u64);
        assert!(r.median("c1.ingest_s") > 0.0);
        let p99 = r.median("c1.query_p99_us");
        assert!(p99 > 0.0 && p99 < config.slo_ms * 1000.0, "c1 p99 {p99}");
    }

    #[test]
    fn serve_baseline_rejects_missing_fields() {
        let path = doctored("serve-load", "serve-missing", |root| {
            *entry_mut(root, &["stages", "c1.query_p99_us", "max"]) = Value::Str("slow".into());
        });
        let err = Record::load(&path).unwrap_err();
        assert!(
            err.contains("c1.query_p99_us") && err.contains("\"max\""),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_load_baseline_parses_committed_shape() {
        let config = tomo_sim::serve_load::ServeLoadConfig::default();
        let r = Record::load(&committed("serve-load")).unwrap();
        assert_eq!(r.workload, "serve-load");
        for c in &config.client_counts {
            assert_eq!(
                r.count(&format!("c{c}.batches")),
                config.batches_total as u64
            );
            assert!(r.median(&format!("c{c}.ingest_s")) > 0.0, "c{c}");
            assert!(r.median(&format!("c{c}.query_p99_us")) > 0.0, "c{c}");
        }
        assert_eq!(r.counts.len(), config.client_counts.len());
        let serve_load = WORKLOADS.iter().find(|w| w.name == "serve-load").unwrap();
        for c in (serve_load.checks)(&r) {
            assert!(c.holds, "{}", c.what);
        }
    }

    #[test]
    fn serve_load_baseline_rejects_missing_fields() {
        let path = doctored("serve-load", "serve-load-missing", |root| {
            drop_field(root, "total")
        });
        assert!(Record::load(&path).unwrap_err().contains("\"total\""));
        std::fs::remove_file(&path).ok();
        let path = doctored("serve-load", "serve-load-count", |root| {
            *entry_mut(root, &["counts", "c4.batches"]) = Value::Float(1.5);
        });
        assert!(Record::load(&path).unwrap_err().contains("c4.batches"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gate_passes_up_to_the_widened_max_and_fails_above_it() {
        let committed = record(1, &[("trials", 80)], 0.95);
        // Committed max 1.0, threshold 0.15: the ceiling is 1.15.
        let at = gate(&committed, &record(1, &[("trials", 80)], 1.15), 0.15).unwrap();
        assert!(at.iter().all(Bound::holds));
        let above = gate(&committed, &record(1, &[("trials", 80)], 1.16), 0.15).unwrap();
        assert!(above.iter().all(|b| !b.holds()));
        assert_eq!(above.len(), 2, "one bound per stage plus the total");
    }

    #[test]
    fn count_mismatch_is_workload_drift() {
        let committed = record(1, &[("trials", 80)], 0.95);
        let err = gate(&committed, &record(1, &[("trials", 79)], 0.95), 0.15).unwrap_err();
        assert!(err.contains("workload drift"));
        let mut renamed = record(1, &[("trials", 80)], 0.95);
        renamed.stages[0].0 = "threads2_s".into();
        assert!(gate(&committed, &renamed, 0.15)
            .unwrap_err()
            .contains("workload drift"));
        let mut reseeded = record(1, &[("trials", 80)], 0.95);
        reseeded.seed = SEED + 1;
        assert!(gate(&committed, &reseeded, 0.15)
            .unwrap_err()
            .contains("workload drift"));
    }

    #[test]
    fn files_recorded_on_more_cores_are_skipped() {
        assert!(skip_reason(&record(4, &[], 1.0), 2).is_some());
        assert!(skip_reason(&record(2, &[], 1.0), 2).is_none());
        assert!(skip_reason(&record(1, &[], 1.0), 2).is_none());
    }

    #[test]
    fn workload_reruns_the_quick_fig7_trial_count() {
        let fig7 = WORKLOADS.iter().find(|w| w.name == "fig7-quick").unwrap();
        let r = measure(&[fig7], 1, 1).unwrap().remove(0);
        assert_eq!(r.count("trials"), 80);
        assert!(r.total.median > 0.0);
    }
}
