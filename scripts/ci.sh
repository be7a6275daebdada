#!/usr/bin/env bash
# CI gate: simlint, tier-1 tests, trace-export and fault-injection
# smokes, simsan sanitize stage, SLO suite, parallel-sweep and
# determinism smokes, benchmark smoke, simulator perf guards (including
# the telemetry disabled-overhead guard).
#
# The perf guards compare wall-clock numbers with BENCH_simulator.json;
# on a host whose CPU affinity or Python version differs from the
# baseline's, `repro perf --check` skips those floors and exits 2.  The
# telemetry off/on ratio compares two runs on the same host, so it is
# checked on every host.
#
# Usage: scripts/ci.sh            (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== simlint gate (determinism / coroutine-protocol static analysis) =="
# zero-findings baseline: both errors AND warnings fail; see docs/simlint.md
python -m repro lint src/repro

echo
echo "== ruff + mypy (skipped when the tools are not installed) =="
# optional in minimal environments: the container bakes only the python
# toolchain; config lives in pyproject.toml, installed via `pip install -e .[lint]`
if python -m ruff --version > /dev/null 2>&1; then
    python -m ruff check src tests
else
    echo "ruff not installed; skipping (pip install -e .[lint] to enable)"
fi
if python -m mypy --version > /dev/null 2>&1; then
    python -m mypy src/repro/simnet src/repro/simlint \
        src/repro/workloads src/repro/scenarios
else
    echo "mypy not installed; skipping (pip install -e .[lint] to enable)"
fi

echo
echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== trace-export smoke (replicated spin write -> Perfetto JSON) =="
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
python -m repro trace --protocol spin --replication 3 \
    --out "$tmpdir/ci.trace.json" --metrics "$tmpdir/ci.metrics.json"

python - "$tmpdir/ci.trace.json" "$tmpdir/ci.metrics.json" <<'PY'
import json
import sys

trace_path, metrics_path = sys.argv[1], sys.argv[2]
doc = json.load(open(trace_path))
events = doc["traceEvents"]
assert doc["displayTimeUnit"] == "ns", "missing displayTimeUnit"
assert events, "empty traceEvents"
slices = [e for e in events if e["ph"] == "X"]
named = {e["pid"] for e in events if e["ph"] == "M" and e["name"] == "process_name"}
for e in slices:
    assert e["ts"] >= 0 and e["dur"] >= 0, f"bad timing in {e}"
    assert e["pid"] in named, f"slice on unnamed pid {e['pid']}"
cats = {e["cat"] for e in slices}
missing = {"request", "net", "hpu", "host"} - cats
assert not missing, f"trace missing layers: {missing}"
timed = [e["ts"] for e in events if e["ph"] != "M"]
assert timed == sorted(timed), "timestamps not monotonic"

snap = json.load(open(metrics_path))
assert snap["counters"], "metrics dump has no counters"
assert any(k.endswith(".latency_ns") for k in snap["histograms"]), \
    "no request-latency histogram"
print(f"trace schema OK: {len(slices)} spans across {sorted(cats)}")
PY

echo
echo "== fault-injection smoke (seeded loss, all protocols, quiesce) =="
# seed 2 is known to drop packets at p=1e-3, so the retransmission
# path is actually exercised, not just compiled
python -m repro demo --loss 1e-3 --seed 2

echo
echo "== simsan gate (quick scenario + faulty protocol point, zero findings) =="
# the runtime sanitizer must come back clean on a live schedule and on
# a seeded-loss protocol point (schedule races, quiesce leaks, orphan
# spans); see docs/simsan.md
python - <<'PY'
from repro.runner import point_seed
from repro.scenarios import get, run_scenario

spec = get("hot_shard", quick=True)
seed = point_seed("scenario_matrix", {"scenario": spec.name, "quick": True})
timings = {}
row = run_scenario(spec, seed=seed, timings=timings, sanitize=True)
report = timings["sanitizer"]
assert row["quiesced"], "hot_shard quick failed to quiesce"
assert report.ok, f"sanitizer findings on hot_shard quick:\n{report.summary()}"
print(f"hot_shard quick sanitized clean: {report.summary()}")
PY
python -m repro sanitize --demo --loss 1e-3 --seed 2

echo
echo "== SLO suite (fixed-seed latency anatomy vs BENCH_slo.json) =="
# runs every scenario: phase decompositions must sum to the end-to-end
# latency within 1 ns, every declared budget must hold, and no phase
# percentile may regress past the noise band of the committed baseline
python -m repro slo --check BENCH_slo.json

echo
echo "== parallel sweep smoke (--jobs 2 must match serial byte-for-byte) =="
python -m repro.experiments fig06 --quick --jobs 1 --no-cache --no-check \
    --csv "$tmpdir/serial.csv" > /dev/null
python -m repro.experiments fig06 --quick --jobs 2 --no-cache --no-check \
    --csv "$tmpdir/parallel.csv" > /dev/null
cmp "$tmpdir/serial.csv" "$tmpdir/parallel.csv"
echo "parallel sweep rows identical to serial"

echo
echo "== coalesced events-per-packet budget (deterministic, 5% cap) =="
# event/packet counts of the coalesced pipeline are fully deterministic:
# any growth past +5% of the committed baseline is a real de-coalescing
# regression, not machine noise
python - <<'PY'
import json

import numpy as np

from repro.dfs.client import DfsClient
from repro.dfs.cluster import build_testbed
from repro.protocols import install_spin_targets

tb = build_testbed(n_storage=2)
install_spin_targets(tb)
c = DfsClient(tb)
c.create("/f", size=64 * 1024)
data = np.zeros(64 * 1024, np.uint8)
assert c.write_sync("/f", data, protocol="spin").ok  # warm-up
e0, p0 = tb.sim.events_dispatched, tb.net.switch.rx_packets
out = c.write_sync("/f", data, protocol="spin")
assert out.ok
# steady-state delta, matching the BENCH pipeline measurement
epp = (tb.sim.events_dispatched - e0) / (tb.net.switch.rx_packets - p0)
base = json.load(open("BENCH_simulator.json"))["pipeline"]["events_per_packet"]
assert epp <= base * 1.05, (
    f"coalesced pipeline regressed: {epp:.3f} events/packet "
    f"> baseline {base} (+5% cap)")
assert epp <= 9.0, f"events/packet budget blown: {epp:.3f} > 9.0"
print(f"events/packet {epp:.3f} (baseline {base}, budget 9.0) OK")
PY

echo
echo "== load-engine smoke (8 clients, fixed seed, quiesce) =="
python - <<'PY'
from repro.dfs.cluster import build_testbed
from repro.protocols import install_spin_targets
from repro.workloads import LoadSpec, closed_loop_write_load

tb = build_testbed(n_storage=4, n_clients=4)
install_spin_targets(tb)
spec = LoadSpec(n_clients=8, outstanding=2, think_ns=2_000.0,
                warmup_ns=50_000.0, measure_ns=400_000.0, seed=7)
res = closed_loop_write_load(tb, 8192, "spin", spec)
assert res.quiesced, "load engine failed to quiesce"
# fixed seed => exact deterministic op counts
assert res.ops == 1399, f"aggregate measured ops drifted: {res.ops} != 1399"
assert res.issued == 1568, f"issued ops drifted: {res.issued} != 1568"
assert all(pc["ops"] > 0 for pc in res.per_client), "a client starved"
print(f"load engine OK: {res.ops} ops, {res.kops_per_s:.0f} kops/s, "
      f"p99 {res.latency['p99']:.0f} ns, quiesced")
PY

echo
echo "== recovery-storm smoke (fixed seed, byte-identical schedule) =="
# kills a whole failure domain mid-load: heartbeat detection, bounded
# re-replication through the data plane, and shape checks must all
# pass; a second run on two worker processes must reproduce the serial
# rows (incl. the repair-schedule digest) byte-for-byte
python -m repro.experiments recovery_storm --quick --no-cache \
    --csv "$tmpdir/storm1.csv"
python -m repro.experiments recovery_storm --quick --no-cache --no-check \
    --jobs 2 --csv "$tmpdir/storm2.csv" > /dev/null
cmp "$tmpdir/storm1.csv" "$tmpdir/storm2.csv"
echo "recovery storm deterministic: --jobs 2 rerun byte-identical to serial"

echo
echo "== scenario-matrix smoke (3-scenario mini-matrix, byte-identical) =="
# hot_shard / incast / uniform_onoff through the aggregated flow
# generators at a fixed seed: shape checks (skew lands on the pinned
# node, incast backlog spikes) must pass, and a second run on two worker
# processes must reproduce the serial rows — including every schedule
# digest — byte-for-byte
python -m repro.experiments scenario_matrix --quick --no-cache \
    --csv "$tmpdir/matrix1.csv"
python -m repro.experiments scenario_matrix --quick --no-cache --no-check \
    --jobs 2 --csv "$tmpdir/matrix2.csv" > /dev/null
cmp "$tmpdir/matrix1.csv" "$tmpdir/matrix2.csv"
echo "scenario matrix deterministic: --jobs 2 rerun byte-identical to serial"

echo
echo "== benchmark smoke (bench/run.py --quick, digests vs bench/baseline.json) =="
# all five benchmark workloads once at ~1/20 size: every rep's checks
# must pass, including the schedule digests pinned in bench/baseline.json.
# Any nonzero exit fails the stage: 1 is a CHECK FAILED, 2 means the
# benchmark produced no result, and a stage that did not run is no pass
bench_status=0
python bench/run.py --quick --reps 1 > "$tmpdir/bench.txt" 2>&1 || bench_status=$?
grep -v '^{"correct"' "$tmpdir/bench.txt" || true
if [ "$bench_status" -ne 0 ] || grep -q "CHECK FAILED" "$tmpdir/bench.txt"; then
    echo "benchmark smoke failed (exit $bench_status)"
    exit 1
fi

echo
echo "== simulator perf guard (vs committed BENCH_simulator.json) =="
# wide 30% wall-clock tolerance absorbs CI machine noise; the
# events-per-packet count is deterministic and capped at +5%; the
# pipeline section's telemetry-off time may exceed telemetry-on time by
# at most 3% (collection must cost nothing when off)
python -m repro perf --check BENCH_simulator.json --tolerance 0.30

echo
echo "== single-core kernel guard (events/s within 10%) =="
# the dispatch loop is the hot path of every workload: the kernel
# section's wall-clock gate runs at a tight 10% (2x the 5% CLI
# tolerance), so a slowdown there fails CI even when the wider 30%
# gate above would absorb it
python -m repro perf --check BENCH_simulator.json --tolerance 0.05 \
    --section kernel

echo
echo "CI gate passed."
