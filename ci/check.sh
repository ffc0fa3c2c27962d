#!/bin/sh
# CI gate: formatting (when the formatter is available), full build, tests,
# quick-scale bench parity gates and serving/streaming smokes.
# Run from the repository root:
#   sh ci/check.sh
set -eu

cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1 && [ -f .ocamlformat ]; then
  echo "== dune fmt (check) =="
  dune build @fmt || {
    echo "formatting check failed — run 'dune fmt' and commit the result" >&2
    exit 1
  }
else
  echo "== dune fmt skipped (ocamlformat not installed or no .ocamlformat) =="
fi

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

# EXPLAIN ANALYZE smoke: an analyzed run must print the annotated plan
# (with the candidate rows each materialized chain emitted) and skew
# table, and the JSON run report must parse and contain the required
# sections (metrics, per-operator actuals, straggler ratio)
echo "== murarun --analyze smoke =="
report=$(mktemp /tmp/murarun_report.XXXXXX.json)
trap 'rm -f "$report"' EXIT
out=$(dune exec bin/murarun.exe -- --gen er:2000:0.002 --labels a \
        --query "?x, ?y <- ?x a+ ?y" --analyze --report "$report")
for needle in "rows=" "candidates=" "est=" "err=" "straggler"; do
  case "$out" in
    *"$needle"*) ;;
    *) echo "--analyze output missing '$needle'" >&2; exit 1 ;;
  esac
done
if command -v python3 >/dev/null 2>&1; then
  python3 - "$report" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
for key in ("query", "metrics", "operators", "straggler_ratio", "q_error"):
    assert key in r, f"report missing key {key!r}"
assert r["operators"]["rows"] >= 0, "root operator has no actual cardinality"
assert r["metrics"]["per_worker_ns"], "report missing per-worker totals"
EOF
else
  for key in '"metrics"' '"operators"' '"straggler_ratio"' '"q_error"'; do
    grep -q "$key" "$report" || { echo "report missing $key" >&2; exit 1; }
  done
fi
echo "report OK: $report"

# forced-P_gld EXPLAIN ANALYZE smoke: the actuals are folded from the
# trace of the run itself, so the fixpoint node must report its
# iterations and each recursive branch its rows, applied once per
# iteration (a "calls=" count on a node with rows)
echo "== murarun --system gld --analyze smoke =="
out=$(dune exec bin/murarun.exe -- --gen er:2000:0.002 --labels a \
        --query "?x, ?y <- ?x a+ ?y" --system gld --analyze)
printf '%s\n' "$out" | grep -q "plan=P_gld iters=" ||
  { echo "--system gld --analyze output has no P_gld iters= line" >&2; exit 1; }
printf '%s\n' "$out" | grep -q "rows=.* calls=" ||
  { echo "--system gld --analyze output has no recursive-branch rows= line" >&2; exit 1; }

# every-plan parity gate: quick-scale run of the plan-regret table; every
# plan the rewriter explores for Q1-Q49 runs on the four-worker cluster
# and must return the relation Mura.Eval gives for the chosen plan (the
# timings and q-errors it prints are not gated). With the counter pins
# of test/test_physical.ml it checks the distributed executor.
echo "== bench regret (--quick) =="
dune exec bench/main.exe -- --quick regret

# serving-layer smoke: concurrent sessions resubmitting one query
# through lib/serve must hit the result cache (hit rate > 0) and match
# the reference results (murarun exits non-zero on any parity failure);
# the serve JSON report must parse and carry the cache and
# admission-wait fields
echo "== murarun --serve smoke =="
serve_report=$(mktemp /tmp/murarun_serve.XXXXXX.json)
trap 'rm -f "$report" "$serve_report"' EXIT
dune exec bin/murarun.exe -- --gen er:500:0.006 --labels a \
  --query "?x, ?y <- ?x a+ ?y" --serve 3 --serve-repeat 3 --report "$serve_report"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$serve_report" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
for key in ("hit_rate", "result_hits", "result_misses", "plan_hits",
            "fix_evals", "wait_ms", "latency_ms", "parity_failures"):
    assert key in r, f"serve report missing key {key!r}"
assert r["hit_rate"] > 0, "repeated query never hit the result cache"
assert r["parity_failures"] == 0, "serve results diverged from the oracle"
assert "p95" in r["wait_ms"], "serve report missing admission-wait percentiles"
EOF
else
  for key in '"hit_rate"' '"result_hits"' '"wait_ms"' '"latency_ms"'; do
    grep -q "$key" "$serve_report" || { echo "serve report missing $key" >&2; exit 1; }
  done
  grep -q '"hit_rate":0\.000' "$serve_report" &&
    { echo "repeated query never hit the result cache" >&2; exit 1; }
fi
echo "serve report OK: $serve_report"

# serving-cache parity gate: quick-scale run of the cached vs cache-less
# server micro bench; a parity failure against the reference evaluator
# or a cached run that re-evaluates every fixpoint fails the build (the
# >=2x caching speedup gate only applies at full scale)
echo "== bench micro_serve (--quick) =="
dune exec bench/main.exe -- --quick micro_serve

# telemetry gates: the registry must not change any server counter
# (single-session counters identical on vs off), the snapshot must carry
# the serve series in Prometheus and JSON form, a zero threshold must
# fill the slow-query log and sample-every-query must capture traces
# (the <=2% overhead gate only applies at full scale)
echo "== bench micro_telemetry (--quick) =="
dune exec bench/main.exe -- --quick micro_telemetry

# metrics-snapshot smoke: a served run with the registry installed and
# every query sampled must write a JSON snapshot that parses and carries
# the serve series — counters with labels, the latency histogram with
# buckets — and must have captured at least one per-query trace
echo "== murarun --serve --metrics-out smoke =="
metrics_out=$(mktemp /tmp/murarun_metrics.XXXXXX.json)
trap 'rm -f "$report" "$serve_report" "$metrics_out"' EXIT
out=$(dune exec bin/murarun.exe -- --gen er:500:0.006 --labels a \
        --query "?x, ?y <- ?x a+ ?y" --serve 3 --serve-repeat 3 \
        --metrics-out "$metrics_out" --sample 1 --slow-ms 0.001)
case "$out" in
  *"traces sampled"*) ;;
  *) echo "--sample 1 run reported no sampled traces" >&2; exit 1 ;;
esac
if command -v python3 >/dev/null 2>&1; then
  python3 - "$metrics_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snap = json.load(f)
assert snap["window"] == "cumulative", "snapshot is not a cumulative scrape"
assert snap["taken_us"] > 0, "snapshot missing its timestamp"
rows = {(r["name"], tuple(sorted(r.get("labels", {}).items()))): r
        for r in snap["metrics"]}
names = {n for n, _ in rows}
for needed in ("serve_queries_submitted_total", "serve_cache_total",
               "serve_query_latency_ns", "cluster_stages_total",
               "dds_shuffles_total"):
    assert needed in names, f"snapshot missing series {needed!r}"
for r in snap["metrics"]:
    assert r["kind"] in ("counter", "gauge", "histogram"), r
    if r["kind"] == "histogram":
        assert "buckets" in r and r["count"] >= 0, f"bad histogram row {r['name']}"
        for b in r["buckets"]:
            assert "le" in b and b["count"] >= 0, f"bad bucket in {r['name']}"
    else:
        assert "value" in r, f"scalar row {r['name']} missing its value"
lat = [r for r in snap["metrics"] if r["name"] == "serve_query_latency_ns"]
assert lat and sum(r["count"] for r in lat) > 0, "latency histogram is empty"
hit = rows.get(("serve_cache_total",
                (("cache", "result"), ("event", "hit"))))
assert hit and hit["value"] > 0, "repeated query never hit the result cache"
EOF
else
  for key in '"serve_queries_submitted_total"' '"serve_query_latency_ns"' \
             '"buckets"' '"cluster_stages_total"'; do
    grep -q "$key" "$metrics_out" || { echo "snapshot missing $key" >&2; exit 1; }
  done
fi
echo "metrics snapshot OK: $metrics_out"

# incremental-maintenance parity gate: quick-scale run of the
# establish/repair micro bench; a parity failure on any plan × workers
# combination — insert or delete batches, repair-of-repair — fails the
# build (the >=5x repair-vs-recompute speedup gate only
# applies at full scale on multi-core hosts)
echo "== bench micro_incremental (--quick) =="
dune exec bench/main.exe -- --quick micro_incremental

# streaming smoke: sustained edge arrivals interleaved with queries
# through two servers (incremental repair vs recompute-from-scratch);
# murarun exits non-zero on any parity failure, and the stream report
# must parse, show repaired fixpoints, and carry the repair/recompute
# latency percentiles and the speedup
echo "== murarun --stream smoke =="
stream_report=$(mktemp /tmp/murarun_stream.XXXXXX.json)
trap 'rm -f "$report" "$serve_report" "$metrics_out" "$stream_report"' EXIT
dune exec bin/murarun.exe -- --gen er:300:0.01 --labels a \
  --query "?x, ?y <- ?x a+ ?y" --stream 4 --stream-batch 3 --report "$stream_report"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$stream_report" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["kind"] == "stream_mix", "report is not a stream report"
for key in ("rounds", "completed", "parity_failures", "repaired",
            "repair_fallbacks", "recomputed", "repair_ms", "recompute_ms",
            "speedup", "repair_server", "baseline_server"):
    assert key in r, f"stream report missing key {key!r}"
assert r["parity_failures"] == 0, "stream results diverged from the oracle"
assert r["repaired"] > 0, "the stream never repaired a fixpoint"
assert r["baseline_server"]["repaired"] == 0, "baseline server repaired"
for side in ("repair_ms", "recompute_ms"):
    for pct in ("mean", "p50", "p95"):
        assert pct in r[side], f"stream report missing {side}.{pct}"
EOF
else
  for key in '"kind":"stream_mix"' '"parity_failures"' '"repaired"' \
             '"repair_ms"' '"recompute_ms"' '"speedup"'; do
    grep -q "$key" "$stream_report" || { echo "stream report missing $key" >&2; exit 1; }
  done
fi
echo "stream report OK: $stream_report"

# predicate-granular invalidation smoke: the same stream on a two-label
# graph, querying a+ only. Seeded so that some batches carry no a edge:
# those must leave the cached a+ result valid (post-update result hits
# on the repair server), the batches with an a edge must still repair,
# and every response must match the oracle
echo "== murarun --stream smoke (two labels) =="
stream2_report=$(mktemp /tmp/murarun_stream2.XXXXXX.json)
trap 'rm -f "$report" "$serve_report" "$metrics_out" "$stream_report" "$stream2_report"' EXIT
dune exec bin/murarun.exe -- --gen er:300:0.01 --labels a,b \
  --query "?x, ?y <- ?x a+ ?y" --stream 6 --stream-batch 2 --report "$stream2_report"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$stream2_report" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["parity_failures"] == 0, "stream results diverged from the oracle"
assert r["post_update_hits"] > 0, "no cached result survived a batch without a-edges"
assert r["repaired"] > 0, "batches with a-edges never repaired"
EOF
else
  grep -q '"parity_failures":0[,}]' "$stream2_report" ||
    { echo "stream results diverged from the oracle" >&2; exit 1; }
  grep -q '"post_update_hits":0[,}]' "$stream2_report" &&
    { echo "no cached result survived a batch without a-edges" >&2; exit 1; }
fi
echo "stream report OK: $stream2_report"

echo "ci/check.sh: all checks passed"
