#!/usr/bin/env bash
# Full local CI gate: build, test, lint, format.
#
# Usage: scripts/ci.sh
# Runs from the repository root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy -- -D warnings"
cargo clippy -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# One scratch directory for every smoke's files, removed on exit together
# with any background process still running.
WORK="$(mktemp -d)"
SERVE_PID=""
DAEMON_PID=""
cleanup() {
  for pid in $SERVE_PID $DAEMON_PID; do
    kill "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "==> tomo-sim 2-thread smoke (fig7 --quick --threads 2 --metrics)"
SMOKE_METRICS="$WORK/metrics.json"
target/release/tomo-sim run fig7 --quick --threads 2 --metrics "$SMOKE_METRICS" >/dev/null
grep -q '"par.workers": 2' "$SMOKE_METRICS" || {
  echo "ci: expected par.workers = 2 in $SMOKE_METRICS" >&2
  exit 1
}
echo "ci: 2-thread smoke reported par.workers = 2"

echo "==> tomo-sim warm-start smoke (fig7 --quick --threads 1 --metrics)"
# Single threaded so the solve order — and therefore which skeleton
# repeats find a cached basis — is deterministic for the fixed seed.
# fig7's LPs sit below the warm size gate, so the default run must
# *skip* the cache (and count the skips); forcing the cache on must
# then produce hits. Both runs must agree on the artifact bytes.
WARM_METRICS="$WORK/warm-metrics.json"
target/release/tomo-sim run fig7 --quick --seed 42 --threads 1 \
  --metrics "$WARM_METRICS" >/dev/null
python3 - "$WARM_METRICS" <<'PY'
import json, sys
snapshot = json.load(open(sys.argv[1]))
counters = snapshot.get("counters", {})
hits = counters.get("lp.simplex.warm.hits", 0)
skipped = counters.get("lp.simplex.warm.skipped_small", 0)
nnz = snapshot.get("gauges", {}).get("linalg.sparse.nnz", 0)
if skipped < 1:
    sys.exit(f"ci: expected lp.simplex.warm.skipped_small > 0, got {skipped}")
if hits != 0:
    sys.exit(f"ci: size-gated run should not hit the cache, got hits={hits}")
if nnz < 1:
    sys.exit(f"ci: expected linalg.sparse.nnz > 0, got {nnz}")
print(f"ci: warm-start smoke skipped the cache below the size gate "
      f"(skipped_small={skipped}, sparse nnz={nnz})")
PY
WARM_FORCED_METRICS="$WORK/warm-forced-metrics.json"
TOMO_LP_WARM=force target/release/tomo-sim run fig7 --quick --seed 42 --threads 1 \
  --metrics "$WARM_FORCED_METRICS" >/dev/null
python3 - "$WARM_FORCED_METRICS" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1])).get("counters", {})
hits = counters.get("lp.simplex.warm.hits", 0)
if hits < 1:
    sys.exit(f"ci: expected lp.simplex.warm.hits > 0 under TOMO_LP_WARM=force, got {hits}")
print(f"ci: forced warm-start smoke hit the basis cache (hits={hits})")
PY

echo "==> tomo-sim scale smoke (scale --quick --threads 1 --metrics)"
# The smallest sweep point must still cross the sparse-kernel gauge and
# route its budget LP through the revised simplex, and the artifact must
# land on disk.
SCALE_METRICS="$WORK/scale-metrics.json"
SCALE_OUT="$WORK/scale"
target/release/tomo-sim run scale --quick --seed 42 --threads 1 \
  --metrics "$SCALE_METRICS" --out "$SCALE_OUT" >/dev/null
python3 - "$SCALE_METRICS" "$SCALE_OUT/scale.json" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1])).get("counters", {})
artifact = json.load(open(sys.argv[2]))
sparse = counters.get("core.kernel.sparse", 0)
revised = counters.get("lp.simplex.revised.solves", 0)
if sparse < 1:
    sys.exit(f"ci: expected core.kernel.sparse > 0, got {sparse}")
if revised < 1:
    sys.exit(f"ci: expected lp.simplex.revised.solves > 0, got {revised}")
points = artifact.get("points", [])
if not points or points[0].get("kernel") != "sparse":
    sys.exit(f"ci: scale.json smallest point did not use the sparse kernel: {points}")
print(f"ci: scale smoke used the sparse construction kernel and the revised "
      f"simplex ({points[0]['links']} links, {points[0]['lp_revised_pivots']} pivots)")
PY

echo "==> tomo-sim chaos smoke (chaos --quick --threads 2 --metrics)"
# Default fault mix (measurement faults only): faults must fire, every
# one must be absorbed by a degradation path, and the run must exit 0.
CHAOS_METRICS="$WORK/chaos-metrics.json"
CHAOS_OUT="$WORK/chaos"
target/release/tomo-sim run chaos --quick --seed 42 --threads 2 \
  --metrics "$CHAOS_METRICS" --out "$CHAOS_OUT" >/dev/null
python3 - "$CHAOS_METRICS" "$CHAOS_OUT/chaos.json" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1])).get("counters", {})
artifact = json.load(open(sys.argv[2]))
injected = counters.get("fault.injected", 0)
if injected < 1:
    sys.exit(f"ci: expected fault.injected > 0, got {injected}")
totals = artifact["totals"]
if totals["injected"] != totals["handled"] + totals["quarantined"]:
    sys.exit(f"ci: chaos fault ledger unbalanced: {totals}")
if totals["quarantined_trials"] != 0:
    sys.exit(f"ci: default chaos mix quarantined "
             f"{totals['quarantined_trials']} trials")
print(f"ci: chaos smoke injected {injected} faults, "
      f"all handled ({totals['degraded_trials']} degraded trials, "
      f"0 quarantined)")
PY

echo "==> degraded-solve smoke (DeltaEstimator downdates on the chaos path)"
# Degraded solves in the chaos smoke above must have flowed through the
# DeltaEstimator, i.e. rank-1 downdates of the cached Gram factor, not
# the from-scratch rebuild, while keeping the fault ledger balanced.
# The downdate-vs-rebuild parity suite ran under `cargo test` above;
# this checks the live counters of a real run.
python3 - "$CHAOS_METRICS" "$CHAOS_OUT/chaos.json" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1])).get("counters", {})
artifact = json.load(open(sys.argv[2]))
updates = counters.get("linalg.chol.updates", 0)
if updates < 1:
    sys.exit(f"ci: expected linalg.chol.updates > 0 on the chaos path, "
             f"got {updates}")
delta_solves = counters.get("core.estimator_cache.delta_solves", 0)
if delta_solves < 1:
    sys.exit(f"ci: expected core.estimator_cache.delta_solves > 0, "
             f"got {delta_solves}")
totals = artifact["totals"]
if totals["injected"] != totals["handled"] + totals["quarantined"]:
    sys.exit(f"ci: chaos fault ledger unbalanced with degraded solves "
             f"by downdate: {totals}")
print(f"ci: degraded-solve smoke ran {updates} rank-1 downdates "
      f"across {delta_solves} delta solves, ledger balanced")
PY

echo "==> tomo-sim trace smoke (fig7 --quick --trace-out)"
# --trace-out must emit valid Chrome trace-event JSON with one span and
# one provenance instant per Monte-Carlo trial (fig7 --quick = 80), and
# one sim.fig7.system span per placed system (one per family).
TRACE_JSON="$WORK/trace.json"
target/release/tomo-sim run fig7 --quick --seed 42 --threads 2 \
  --trace-out "$TRACE_JSON" >/dev/null 2>&1
python3 - "$TRACE_JSON" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
trials = [e for e in events if e.get("ph") == "X" and e.get("name") == "trial"]
systems = [e for e in events
           if e.get("ph") == "X" and e.get("name") == "sim.fig7.system"]
instants = [e for e in events if e.get("ph") == "i"]
if len(trials) < 80:
    sys.exit(f"ci: expected >= 80 trial spans, got {len(trials)}")
if len(systems) != 2:
    sys.exit(f"ci: expected 2 sim.fig7.system spans, got {len(systems)}")
if len(instants) < 80:
    sys.exit(f"ci: expected >= 80 provenance instants, got {len(instants)}")
orphans = [e for e in instants
           if str(e["args"].get("parent_id", "0")) == "0"]
if orphans:
    sys.exit(f"ci: {len(orphans)} provenance instants have no parent span")
keys = {"seed", "warm", "trial"}
missing = [e for e in instants if not keys <= set(e["args"])]
if missing:
    sys.exit(f"ci: {len(missing)} provenance instants missing {keys}")
print(f"ci: trace smoke captured {len(trials)} trial spans, "
      f"{len(systems)} system spans and {len(instants)} provenance records")
PY

echo "==> tomo-sim serve-metrics smoke (live Prometheus scrape mid-run)"
# Scrape the run-scoped endpoint while fig7 is still executing: the
# response must carry Prometheus type families for the live counters.
SERVE_PORT=9184
target/release/tomo-sim run fig7 --quick --seed 42 --threads 1 \
  --serve-metrics "$SERVE_PORT" >/dev/null 2>&1 &
SERVE_PID=$!
python3 - "$SERVE_PORT" <<'PY'
import sys, time, urllib.request
port = sys.argv[1]
url = f"http://127.0.0.1:{port}/metrics"
for _ in range(50):  # fig7 --quick runs ~2s; poll until families appear
    try:
        body = urllib.request.urlopen(url, timeout=1).read().decode()
        if "# TYPE tomo_" in body:
            families = sum(1 for l in body.splitlines()
                           if l.startswith("# TYPE "))
            print(f"ci: mid-run scrape returned {families} "
                  f"Prometheus families")
            sys.exit(0)
    except OSError:
        pass
    time.sleep(0.1)
sys.exit("ci: never scraped Prometheus text from the running simulator")
PY
wait "$SERVE_PID"

echo "==> tomo-serve smoke (daemon + faulted probe + HTTP + shutdown)"
# Boot the streaming daemon on ephemeral ports, stream faulted batches
# at it with tomo-probe, check the delivery ledger balances, hit every
# HTTP endpoint, then shut it down over HTTP and require a clean exit.
SERVE_WORK="$WORK/serve"
mkdir -p "$SERVE_WORK"
SERVE_LOG="$SERVE_WORK/daemon.log"
target/release/tomo-serve --ingest-port 0 --http-port 0 \
  --journal "$SERVE_WORK/journal.bin" --max-secs 120 > "$SERVE_LOG" &
DAEMON_PID=$!
for _ in $(seq 50); do
  grep -q '^http_addr=' "$SERVE_LOG" 2>/dev/null && break
  sleep 0.1
done
INGEST_ADDR="$(sed -n 's/^ingest_addr=//p' "$SERVE_LOG")"
HTTP_ADDR="$(sed -n 's/^http_addr=//p' "$SERVE_LOG")"
if [ -z "$INGEST_ADDR" ] || [ -z "$HTTP_ADDR" ]; then
  echo "ci: tomo-serve never printed its bound addresses" >&2
  exit 1
fi
PROBE_JSON="$(target/release/tomo-probe --addr "$INGEST_ADDR" \
  --batches 24 --seed 42 --faults frame=0.3)"
echo "$PROBE_JSON" | grep -q '"acked": 24' || {
  echo "ci: probe did not deliver all 24 batches: $PROBE_JSON" >&2
  exit 1
}
echo "$PROBE_JSON" | grep -q '"balanced": true' || {
  echo "ci: probe fault ledger unbalanced: $PROBE_JSON" >&2
  exit 1
}
echo "ci: faulted probe delivered 24/24 with a balanced ledger"
python3 - "$HTTP_ADDR" <<'PY'
import json, sys, urllib.request
base = f"http://{sys.argv[1]}"
def get(path):
    return urllib.request.urlopen(base + path, timeout=2).read().decode()
if "ok" not in get("/healthz"):
    sys.exit("ci: /healthz not ok")
get("/readyz")  # raises on 503; full-coverage stream makes it ready
state = json.loads(get("/state"))
if state["coverage"] != state["num_paths"] or state["degraded"]:
    sys.exit(f"ci: /state not fully covered: {state}")
verdict = json.loads(get("/verdict"))
if verdict["detected"]:
    sys.exit(f"ci: clean stream flagged by the detector: {verdict}")
stats = json.loads(get("/stats"))
if stats["applied"] != 24:
    sys.exit(f"ci: /stats applied != 24: {stats}")
if stats["quarantined_frames"] < 1:
    sys.exit(f"ci: frame faults never quarantined: {stats}")
p99 = stats["query_latency_us"]["p99"]
if p99 is not None and p99 >= stats["slo_ms"] * 1000.0:
    sys.exit(f"ci: query p99 {p99}us blew the {stats['slo_ms']}ms SLO")
req = urllib.request.Request(base + "/shutdown", data=b"", method="POST")
urllib.request.urlopen(req, timeout=2)
print(f"ci: serve smoke ok (applied=24, quarantined_frames="
      f"{stats['quarantined_frames']}, query p99={p99}us)")
PY
wait "$DAEMON_PID" || {
  echo "ci: tomo-serve exited non-zero after /shutdown" >&2
  exit 1
}
grep -q 'reason=requested' "$SERVE_LOG" || {
  echo "ci: daemon exit was not the requested shutdown:" >&2
  cat "$SERVE_LOG" >&2
  exit 1
}
echo "ci: daemon shut down cleanly on request"

echo "==> tomo-sim serve-chaos smoke (live daemon kill/restart sweep)"
# The sweep itself enforces the invariants (balanced ledger, bit-exact
# reconvergence after a mid-sweep restart, p99 under SLO) and exits
# non-zero on any violation.
SERVE_CHAOS_OUT="$WORK/serve-chaos"
target/release/tomo-sim run serve-chaos --quick --seed 42 \
  --out "$SERVE_CHAOS_OUT" >/dev/null
python3 - "$SERVE_CHAOS_OUT/serve_chaos.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
points = r["points"]
if not points:
    sys.exit("ci: serve-chaos produced no points")
for p in points:
    if not p["byte_identical"]:
        sys.exit(f"ci: serve-chaos point {p['scale']} not bit-exact")
    if p["epoch_after_restart"] != 2:
        sys.exit(f"ci: serve-chaos point {p['scale']} epoch "
                 f"{p['epoch_after_restart']} != 2 after one restart")
    if not p["slo_ok"]:
        sys.exit(f"ci: serve-chaos point {p['scale']} blew the SLO")
t = r["totals"]
if t["injected"] != t["handled"] + t["quarantined"]:
    sys.exit(f"ci: serve-chaos ledger unbalanced: {t}")
print(f"ci: serve-chaos smoke ok ({len(points)} points, "
      f"{t['injected']} wire faults, every restart bit-exact)")
PY

echo "==> tomo-sim serve-load smoke (concurrent clients vs one daemon, --quick)"
# The quick sweep runs 1 then 4 concurrent clients against a single
# daemon with query hammering; the run itself enforces bit-exact final
# state vs the single-client reference and snapshot self-checks, and
# exits non-zero on any violation. The smoke re-checks the artifact.
SERVE_LOAD_OUT="$WORK/serve-load"
target/release/tomo-sim run serve-load --quick --seed 42 \
  --out "$SERVE_LOAD_OUT" >/dev/null
python3 - "$SERVE_LOAD_OUT/serve_load.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
points = r["points"]
clients = [p["clients"] for p in points]
if not points or max(clients) < 4:
    sys.exit(f"ci: serve-load smoke never reached 4 concurrent clients: {clients}")
total = r["config"]["batches_total"]
for p in points:
    if p["batches"] != total:
        sys.exit(f"ci: serve-load {p['clients']}-client point delivered "
                 f"{p['batches']}/{total} batches")
    if not p["byte_identical"]:
        sys.exit(f"ci: serve-load {p['clients']}-client final state "
                 f"diverged from the single-client reference")
    if not p["slo_ok"]:
        sys.exit(f"ci: serve-load {p['clients']}-client point blew the "
                 f"{r['config']['slo_ms']}ms query SLO")
    if p["snapshot_version"] < 1:
        sys.exit(f"ci: serve-load {p['clients']}-client point never "
                 f"published a snapshot")
best = max(p["batches_per_sec"] for p in points)
print(f"ci: serve-load smoke ok ({clients} clients, every fleet "
      f"bit-exact, best {best:.0f} batches/s)")
PY

echo "==> tomo-bench regression (committed BENCH_*.json baselines)"
target/release/tomo-bench regression

echo "ci: all checks passed"
