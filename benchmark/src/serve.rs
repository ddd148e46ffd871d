//! `serve-rocketfuel`: a separate `tomo-serve` process on the Rocketfuel
//! fixture (`as65530.cch`, 320 links, 160 extra paths: 480 paths) with a
//! journal, driven by one load generator with two threads.
//!
//! The run repeats *cycles* until `--seconds` have passed. One cycle:
//!
//! 1. **Set-up** — spawn the daemon on a fresh journal; wait for both
//!    addresses and for one full-coverage round (one batch per path
//!    group) to be acked.
//! 2. **Ingest** — one `ProbeClient` connection, closed loop, windows of
//!    [`WINDOW`] batches through `stream_windowed`. Beside it, an open
//!    loop sends `GET /verdict` at [`QUERY_RATE_HZ`], each query timed
//!    from when it was due.
//! 3. **Check** — `/state` estimate bits must equal an in-process,
//!    single-client reference of the same batch sequence.
//! 4. **Recovery** — SIGKILL the daemon, restart it on the same journal,
//!    time until `/readyz` answers 200, and require the same bits again.
//!
//! The traced run adds an in-process replay of one cycle's batch
//! sequence through the serve layers (wire, queue, journal, engine,
//! snapshot), once untraced and once under spans; both must end on the
//! live daemon's bits.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tomo_core::{params, TomographySystem};
use tomo_detect::ConsistencyDetector;
use tomo_linalg::Vector;
use tomo_serve::{
    ApplyOutcome, Engine, Frame, Journal, ProbeBatch, ProbeClient, ProbeRow, ServeConfig,
    ShardedQueue, SnapshotStore,
};

use crate::report::{median, peak_rss_mb, percentile, Report};
use crate::{trace, Args};

const TOPOLOGY: &str = "tests/fixtures/as65530.cch";
const EXTRA_PATHS: usize = 160;
/// `tomo-serve`'s default `--paths-seed`.
const PATHS_SEED: u64 = 42;
/// Path groups: batch `b` carries the paths `p % GROUPS == b % GROUPS`.
const GROUPS: usize = 8;
/// Batches per ack round trip.
const WINDOW: usize = 32;
/// Batches of the ingest phase of one cycle.
const INGEST_BATCHES: usize = 8192;
/// Open-loop `/verdict` rate during ingest.
const QUERY_RATE_HZ: f64 = 400.0;
/// Scratch directory for journals, inside the checkout.
const WORK_DIR: &str = ".bench_work";
/// The daemon exits by itself after this long even if the benchmark dies.
const DAEMON_MAX_SECS: &str = "170";
const HTTP_TIMEOUT: Duration = Duration::from_secs(5);
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// The rows of batch `b`: grouped, and a pure function of `b`.
fn batch_rows(y: &Vector, b: usize) -> Vec<ProbeRow> {
    (0..y.len())
        .filter(|p| p % GROUPS == b % GROUPS)
        .map(|p| {
            ProbeRow::new(
                u32::try_from(p).expect("path index fits u32"),
                y[p] + b as f64 * 1e-9,
            )
        })
        .collect()
}

/// Final estimate bits of a single client sending batches `0..count` in
/// order to one engine: the state every delivery order must reach.
fn reference_bits(system: &Arc<TomographySystem>, y: &Vector, count: usize) -> Vec<u64> {
    let mut engine = Engine::new(Arc::clone(system), ConsistencyDetector::recommended());
    engine.bump_epoch(1);
    for b in 0..count {
        let batch = ProbeBatch {
            batch_id: b as u64,
            epoch: 1,
            rows: batch_rows(y, b),
        };
        assert!(
            matches!(engine.apply(&batch), ApplyOutcome::Applied { .. }),
            "reference engine refused batch {b}"
        );
    }
    engine.query().expect("reference solve").estimate_bits
}

// ---------------------------------------------------------------- HTTP

fn http(addr: SocketAddr, method: &str, target: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, HTTP_TIMEOUT)?;
    stream.set_read_timeout(Some(HTTP_TIMEOUT))?;
    stream.set_write_timeout(Some(HTTP_TIMEOUT))?;
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad HTTP response {raw:?}")))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

fn json_u64(body: &str, key: &str) -> Option<u64> {
    let rest = &body[body.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// `estimate_bits` of a `/state` body.
fn state_bits(body: &str) -> Option<Vec<u64>> {
    let start = body.find("\"estimate_bits\": [")? + "\"estimate_bits\": [".len();
    let list = &body[start..start + body[start..].find(']')?];
    list.split(',')
        .map(|s| u64::from_str_radix(s.trim().trim_matches('"'), 16).ok())
        .collect()
}

fn fetch_bits(addr: SocketAddr) -> Result<Vec<u64>, String> {
    match http(addr, "GET", "/state") {
        Ok((200, body)) => state_bits(&body).ok_or_else(|| "unparsable /state".to_string()),
        Ok((status, body)) => Err(format!("/state answered {status}: {body}")),
        Err(e) => Err(format!("/state: {e}")),
    }
}

// -------------------------------------------------------------- daemon

struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    ingest: SocketAddr,
    http: SocketAddr,
}

impl Daemon {
    fn spawn(bin: &Path, journal: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--topology", TOPOLOGY, "--extra-paths"])
            .arg(EXTRA_PATHS.to_string())
            .arg("--journal")
            .arg(journal)
            .args(["--max-secs", DAEMON_MAX_SECS])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let (mut ingest, mut http) = (None, None);
        let mut line = String::new();
        while ingest.is_none() || http.is_none() {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before printing its addresses".into());
            }
            let parse = |v: &str| v.trim().parse::<SocketAddr>().ok();
            if let Some(v) = line.strip_prefix("ingest_addr=") {
                ingest = parse(v);
            } else if let Some(v) = line.strip_prefix("http_addr=") {
                http = parse(v);
            }
        }
        Ok(Daemon {
            child,
            stdout,
            ingest: ingest.expect("loop ends with both"),
            http: http.expect("loop ends with both"),
        })
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// SIGKILL, then reap.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// `POST /shutdown`, then reap (SIGKILL if it does not exit within
    /// 10 s). Its stdout stays open until it has exited, so its last line
    /// never meets a closed pipe.
    fn shutdown(mut self) {
        let _ = http(self.http, "POST", "/shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(self.child.try_wait(), Ok(Some(_))) {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

// ----------------------------------------------------------- load loop

#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    cycle_s: Vec<f64>,
    ingest_rate: Vec<f64>,
    window_us: Vec<f64>,
    query_us: Vec<f64>,
    query_service_us: Vec<f64>,
    late_max_ms: f64,
    recovery_s: Vec<f64>,
    peak_rss_mb: f64,
    reconnects: u64,
    queue_full_rejects: u64,
    queue_rejects: u64,
    snapshot_versions: u64,
    applied: u64,
    live_bits: Vec<u64>,
}

/// Open-loop `/verdict` sender: query `k` is due at `start + k / rate`.
fn query_loop(addr: SocketAddr, stop: &AtomicBool) -> (Vec<f64>, Vec<f64>, f64, u64) {
    let (mut from_due, mut service, mut late_max, mut failed) = (Vec::new(), Vec::new(), 0.0f64, 0);
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / QUERY_RATE_HZ);
    let mut k = 0u32;
    loop {
        let due = start + period * k;
        k += 1;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let sent = Instant::now();
        late_max = late_max.max((sent - due).as_secs_f64() * 1e3);
        let ok = matches!(http(addr, "GET", "/verdict"), Ok((200, _)));
        let done = Instant::now();
        from_due.push((done - due).as_secs_f64() * 1e6);
        service.push((done - sent).as_secs_f64() * 1e6);
        if !ok {
            failed += 1;
        }
    }
    (from_due, service, late_max, failed)
}

struct Workload {
    bin: PathBuf,
    y: Vector,
    reference: Vec<u64>,
}

/// One daemon lifecycle; appends its samples and counts its operations.
fn cycle(
    w: &Workload,
    journal: &Path,
    out: &mut Samples,
    report: &mut Report,
) -> Result<(), String> {
    let _ = std::fs::remove_file(journal);
    let setup_start = Instant::now();
    let daemon = Daemon::spawn(&w.bin, journal)?;
    let mut client = ProbeClient::new(daemon.ingest, 0);
    let coverage: Vec<Vec<ProbeRow>> = (0..GROUPS).map(|b| batch_rows(&w.y, b)).collect();
    report.attempted += GROUPS as u64;
    match client.stream_windowed(coverage, WINDOW) {
        Ok(o) => report.failed += GROUPS as u64 - o.acked.min(GROUPS as u64),
        Err(e) => {
            report.failed += GROUPS as u64;
            return Err(format!("coverage round: {e}"));
        }
    }
    out.setup_s.push(setup_start.elapsed().as_secs_f64());

    // Ingest beside the open-loop query sender.
    let cycle_start = Instant::now();
    let stop = AtomicBool::new(false);
    let (ingest_s, acked, queries) = std::thread::scope(|scope| {
        let queries = scope.spawn(|| query_loop(daemon.http, &stop));
        let start = Instant::now();
        let mut acked = 0u64;
        let mut b = GROUPS;
        while b < GROUPS + INGEST_BATCHES {
            let window: Vec<Vec<ProbeRow>> = (b..b + WINDOW).map(|i| batch_rows(&w.y, i)).collect();
            b += WINDOW;
            let t = Instant::now();
            match client.stream_windowed(window, WINDOW) {
                Ok(o) => {
                    out.window_us.push(t.elapsed().as_secs_f64() * 1e6);
                    acked += o.acked;
                    out.reconnects += o.reconnects;
                    out.queue_full_rejects += o.queue_full_rejects;
                }
                Err(e) => {
                    eprintln!("serve: window at batch {}: {e}", b - WINDOW);
                    break;
                }
            }
        }
        let ingest_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        (ingest_s, acked, queries.join().expect("query thread"))
    });
    report.attempted += INGEST_BATCHES as u64;
    report.failed += INGEST_BATCHES as u64 - acked.min(INGEST_BATCHES as u64);
    out.ingest_rate.push(acked as f64 / ingest_s);
    let (from_due, service, late_max, query_failed) = queries;
    report.attempted += from_due.len() as u64;
    report.failed += query_failed;
    out.query_us.extend(from_due);
    out.query_service_us.extend(service);
    out.late_max_ms = out.late_max_ms.max(late_max);

    let bits = fetch_bits(daemon.http)?;
    report.check(bits == w.reference, || {
        "live estimate bits differ from the single-client reference".into()
    });
    if let Ok((200, stats)) = http(daemon.http, "GET", "/stats") {
        out.queue_rejects += json_u64(&stats, "queue_rejects").unwrap_or(0);
        out.snapshot_versions = json_u64(&stats, "snapshot_version").unwrap_or(0);
        out.applied = json_u64(&stats, "applied").unwrap_or(0);
    }
    out.peak_rss_mb = out.peak_rss_mb.max(daemon.peak_rss_mb().unwrap_or(0.0));

    // Crash and recover on the same journal.
    report.attempted += 1;
    let killed = Instant::now();
    daemon.kill();
    let recovered = Daemon::spawn(&w.bin, journal);
    let recovered = match recovered {
        Ok(d) => d,
        Err(e) => {
            report.failed += 1;
            return Err(format!("restart: {e}"));
        }
    };
    let ready = loop {
        match http(recovered.http, "GET", "/readyz") {
            Ok((200, _)) => break true,
            _ if killed.elapsed() > READY_TIMEOUT => break false,
            _ => std::thread::sleep(Duration::from_micros(200)),
        }
    };
    let recovery_s = killed.elapsed().as_secs_f64();
    let after = fetch_bits(recovered.http);
    out.peak_rss_mb = out.peak_rss_mb.max(recovered.peak_rss_mb().unwrap_or(0.0));
    recovered.shutdown();
    if !ready || after.as_ref() != Ok(&bits) {
        report.failed += 1;
        report.violations.push(format!(
            "recovery: ready={ready}, bits {}",
            if after.as_ref() == Ok(&bits) {
                "equal"
            } else {
                "differ"
            }
        ));
    } else {
        out.recovery_s.push(recovery_s);
        out.cycle_s.push(cycle_start.elapsed().as_secs_f64());
    }
    out.live_bits = bits;
    Ok(())
}

pub fn run(args: &Args, report: &mut Report) {
    let system = Arc::new(
        tomo_serve::load_system(Path::new(TOPOLOGY), EXTRA_PATHS, PATHS_SEED)
            .expect("the Rocketfuel fixture loads"),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let x = params::default_delay_model().sample(system.num_links(), &mut rng);
    let y = system.measure(&x).expect("consistent measurements");
    let total = GROUPS + INGEST_BATCHES;
    let w = Workload {
        bin: args.serve_bin.clone(),
        reference: reference_bits(&system, &y, total),
        y,
    };
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).expect("create the work directory");
    let journal = work.join(format!("serve-{}.journal", std::process::id()));

    let mut samples = Samples::default();
    let start = Instant::now();
    while samples.setup_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        if let Err(e) = cycle(&w, &journal, &mut samples, report) {
            report.violations.push(format!("cycle: {e}"));
            break;
        }
    }
    let _ = std::fs::remove_file(&journal);

    report.metric("setup_s", median(&samples.setup_s));
    report.metric("wall_s", median(&samples.cycle_s));
    report.metric("peak_rss_mb", samples.peak_rss_mb);
    report.metric("ingest_batches_per_s", median(&samples.ingest_rate));
    report.metric("ack_window_p50_us", percentile(&samples.window_us, 0.5));
    report.metric("ack_window_p99_us", percentile(&samples.window_us, 0.99));
    report.metric("query_p50_us", percentile(&samples.query_us, 0.5));
    report.metric("query_p99_us", percentile(&samples.query_us, 0.99));
    report.metric("recovery_s", median(&samples.recovery_s));
    report.metric(
        "client.queue_full_rejects",
        samples.queue_full_rejects as f64,
    );
    report.metric("client.reconnects", samples.reconnects as f64);
    report.metric("serve.queue.rejects", samples.queue_rejects as f64);
    report.metric("serve.snapshot.versions", samples.snapshot_versions as f64);
    report.metric(
        "serve.snapshot.batches_per_publish",
        samples.applied as f64 / samples.snapshot_versions.max(1) as f64,
    );
    report.metric("loadgen.late_max_ms", samples.late_max_ms);
    report.metric("loadgen.queries", samples.query_us.len() as f64);
    report.metric("loadgen.windows", samples.window_us.len() as f64);
    report.metric("loadgen.cycles", samples.setup_s.len() as f64);
    if !args.trace {
        let _ = std::fs::remove_dir(&work);
        return;
    }

    // In-process replay of the same batch sequence, untraced then traced.
    let untraced_journal = work.join(format!("replay-a-{}.journal", std::process::id()));
    let traced_journal = work.join(format!("replay-b-{}.journal", std::process::id()));
    let t = Instant::now();
    let plain = replay(&system, &w.y, total, &untraced_journal);
    let untraced_wall = t.elapsed().as_secs_f64();
    trace::enable();
    let t = Instant::now();
    let traced = {
        let _root = trace::span("serve.replay");
        replay(&system, &w.y, total, &traced_journal)
    };
    let traced_wall = t.elapsed().as_secs_f64();
    for p in [&untraced_journal, &traced_journal] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir(&work);
    let layers = trace::LayerTimes::from_spans(&trace::drain());
    let (plain, traced) = match (plain, traced) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            report.violations.push(format!(
                "in-process replay failed: {:?} / {:?}",
                a.err(),
                b.err()
            ));
            return;
        }
    };
    for (what, bits) in [
        ("untraced replay", &plain.final_bits),
        ("traced replay", &traced.final_bits),
        ("traced journal replay", &traced.recovered_bits),
    ] {
        report.check(*bits == samples.live_bits, || {
            format!("{what} bits differ from the live daemon's")
        });
    }

    report.metric("serve.wire.bytes", traced.wire_bytes as f64);
    report.metric("serve.journal.bytes", traced.journal_bytes as f64);
    report.metric("serve.journal.replay_frames", traced.replay_frames as f64);
    report.metric("serve.engine.applied", traced.applied as f64);
    report.metric("serve.engine.deduped", traced.deduped as f64);
    let cold_us = layers.get("serve.snapshot.answer_cold") * 1e6
        / layers.count("serve.snapshot.answer_cold").max(1) as f64;
    report.metric(
        "serve.http.overhead_us",
        median(&samples.query_service_us) - cold_us,
    );
    crate::report_trace(
        report,
        &layers,
        "serve.replay",
        traced_wall,
        (traced_wall, untraced_wall),
    );
}

/// What one in-process replay ended with.
struct ReplayOutcome {
    final_bits: Vec<u64>,
    recovered_bits: Vec<u64>,
    wire_bytes: u64,
    journal_bytes: u64,
    replay_frames: u64,
    applied: u64,
    deduped: u64,
}

/// Batches `0..count` through the daemon's layers on one thread, the way
/// its reader and apply threads use them: encode and decode each frame,
/// push it to its group's shard, pop, admit, journal, apply, publish when
/// the queue drains (or every `publish_coalesce` batches), and answer the
/// new snapshot twice (cold, then warm). Then replay the journal into a
/// fresh engine, as a restart does.
fn replay(
    system: &Arc<TomographySystem>,
    y: &Vector,
    count: usize,
    journal_path: &Path,
) -> Result<ReplayOutcome, String> {
    let config = ServeConfig::default();
    let queue = ShardedQueue::<ProbeBatch>::new(
        config.queue_capacity,
        config.ingest_shards,
        config.retry_after_ms,
    );
    let mut engine = Engine::new(Arc::clone(system), ConsistencyDetector::recommended());
    engine.bump_epoch(1);
    let _ = std::fs::remove_file(journal_path);
    let mut journal =
        Journal::open(journal_path, config.snapshot_every).map_err(|e| e.to_string())?;
    journal
        .append(&Frame::EpochMark { epoch: 1 })
        .map_err(|e| e.to_string())?;
    let store = SnapshotStore::new(engine.published_view(0));
    let (mut version, mut unpublished, mut wire_bytes) = (1u64, 0u64, 0u64);
    let mut last_bits = Vec::new();

    for lo in (0..count).step_by(WINDOW) {
        for b in lo..(lo + WINDOW).min(count) {
            let rows = trace::timed("client.batch_rows", || batch_rows(y, b));
            let frame = Frame::Batch(ProbeBatch {
                batch_id: b as u64,
                epoch: 1,
                rows,
            });
            let bytes = trace::timed("serve.wire.encode", || frame.encode());
            wire_bytes += bytes.len() as u64;
            let Frame::Batch(batch) =
                trace::timed("serve.wire.decode", || Frame::decode(&bytes[4..]))
                    .map_err(|e| format!("decode: {e}"))?
            else {
                return Err("decoded a non-batch frame".into());
            };
            let group = batch
                .rows
                .iter()
                .map(|r| u64::from(r.path))
                .min()
                .unwrap_or(batch.batch_id);
            let shard = queue.shard_for(group);
            trace::timed("serve.queue.push", || queue.try_push(shard, batch))
                .map_err(|_| format!("queue full at batch {b}"))?;
        }
        while let Some((_, batch)) =
            trace::timed("serve.queue.pop", || queue.pop_next(Duration::ZERO))
        {
            if trace::timed("serve.engine.admits", || engine.admits(&batch)) {
                trace::timed("serve.journal.append", || {
                    journal.append(&Frame::Batch(batch.clone()))
                })
                .map_err(|e| e.to_string())?;
            }
            let outcome = trace::timed("serve.engine.apply", || engine.apply(&batch));
            if matches!(outcome, ApplyOutcome::Applied { .. }) && journal.snapshot_due() {
                trace::timed("serve.journal.append", || {
                    journal.append_snapshot(engine.snapshot())
                })
                .map_err(|e| e.to_string())?;
            }
            unpublished += 1;
            if queue.depth() == 0 || unpublished >= config.publish_coalesce {
                trace::timed("serve.snapshot.publish", || {
                    store.publish(engine.published_view(version));
                });
                version += 1;
                unpublished = 0;
                let snap = store.load();
                let cold = trace::timed("serve.snapshot.answer_cold", || snap.answer());
                let warm = trace::timed("serve.snapshot.answer_warm", || snap.answer());
                let (cold, warm) = (
                    cold.map_err(|e| e.to_string())?,
                    warm.map_err(|e| e.to_string())?,
                );
                if cold.estimate_bits != warm.estimate_bits {
                    return Err("warm answer differs from the cold one".into());
                }
                last_bits = cold.estimate_bits;
            }
        }
    }
    drop(journal);
    let journal_bytes = std::fs::metadata(journal_path).map_or(0, |m| m.len());
    let stats = engine.stats();

    let replayed = trace::timed("serve.journal.replay", || Journal::replay(journal_path))
        .map_err(|e| e.to_string())?;
    let recovered_bits = trace::timed("serve.engine.restore", || {
        let mut engine = Engine::new(Arc::clone(system), ConsistencyDetector::recommended());
        if let Some(snap) = &replayed.snapshot {
            engine.restore(snap);
        }
        for batch in &replayed.batches {
            engine.apply(batch);
        }
        engine.query().map(|a| a.estimate_bits)
    })
    .map_err(|e| e.to_string())?;
    Ok(ReplayOutcome {
        final_bits: last_bits,
        recovered_bits,
        wire_bytes,
        journal_bytes,
        replay_frames: replayed.frames_read,
        applied: stats.applied,
        deduped: stats.deduped,
    })
}
