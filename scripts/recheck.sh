#!/usr/bin/env bash
# Results-contract recheck: re-runs bench sweeps serially and compares each
# fresh payload with the committed results/BENCH_<sweep>.json in every field
# that does not depend on the host. Exits non-zero on any difference.
#
# Usage: scripts/recheck.sh [sweep ...]
#   With no arguments it re-runs every sweep that has a committed payload.
#   Fresh payloads and each sweep's log land in target/recheck/.
#
# A refactor that claims byte-identical results should pass this for every
# sweep. It runs the sweeps at full scale, so it is not part of scripts/ci.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

out=target/recheck
mkdir -p "$out"
if [ "$#" -eq 0 ]; then
    set -- $(ls results/BENCH_*.json | sed 's#^results/BENCH_\(.*\)\.json$#\1#')
fi

status=0
for sweep in "$@"; do
    if [ ! -f "results/BENCH_$sweep.json" ]; then
        echo "$sweep: no committed results/BENCH_$sweep.json"
        status=1
        continue
    fi
    rm -f "$out/BENCH_$sweep.json"
    echo "$sweep: running ..."
    if ! M3_JOBS=1 M3_RESULTS_DIR="$out" \
        cargo bench -q -p m3-bench --bench "$sweep" >"$out/$sweep.log" 2>&1; then
        echo "$sweep: FAILED to run (log: $out/$sweep.log)"
        status=1
    fi
done

python3 - "$out" "$@" <<'EOF' || status=1
import fnmatch
import json
import sys

# Fields whose value depends on the host, not on the simulation, so they
# are never compared:
HOST_FIELDS = [
    "wall_clock_*",                   # sweep and sub-sweep wall clocks
    "*_secs",                         # timed phases (serial, parallel, memo)
    "workers",                        # the harness worker count (M3_JOBS)
    "host_cpus",                      # the host's CPU count
    "parallel_speedup",               # ratios of the timings above
    "speedup_8_over_1",
    "memo_replay_speedup_vs_serial",
    "ops_per_wall_s",                 # simulated ops per wall-clock second
]


def host(key):
    return any(fnmatch.fnmatchcase(key, p) for p in HOST_FIELDS)


def load(path):
    # Floats and NaN/Infinity stay as their exact text, so a result must
    # match to the last printed digit and NaN equals NaN.
    with open(path) as f:
        return json.load(f, parse_float=str, parse_constant=str)


def diff(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if host(k):
                continue
            if k not in a or k not in b:
                out.append(f"{path}.{k}: only in {'fresh' if k in a else 'committed'}")
            else:
                diff(a[k], b[k], f"{path}.{k}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: {len(a)} entries, committed {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", out)
    elif a != b:
        out.append(f"{path}: {a!r}, committed {b!r}")


out_dir, sweeps = sys.argv[1], sys.argv[2:]
failed = 0
for sweep in sweeps:
    try:
        fresh = load(f"{out_dir}/BENCH_{sweep}.json")
        committed = load(f"results/BENCH_{sweep}.json")
    except OSError as e:
        print(f"{sweep}: MISSING ({e})")
        failed += 1
        continue
    diffs = []
    diff(fresh, committed, "", diffs)
    if diffs:
        failed += 1
        print(f"{sweep}: {len(diffs)} field(s) differ")
        for d in diffs[:20]:
            print(f"    {d}")
    else:
        print(f"{sweep}: matches")
print(f"{len(sweeps) - failed}/{len(sweeps)} sweeps match their committed payloads")
sys.exit(1 if failed else 0)
EOF
exit "$status"
