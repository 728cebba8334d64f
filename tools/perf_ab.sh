#!/usr/bin/env bash
# Same-host A/B of the host-cost benchmark that BENCHMARK.json
# declares. Exports <base-ref> with `git archive` into a temporary
# directory, then, for every workload it declares, runs
# `perfbench/run.py --trace 0` for its run_seconds, alternately on the
# base and on this checkout's working tree (the change), the side that
# goes first alternating from pair to pair. Prints each end-to-end
# metric's medians, quartiles and change/base ratio, and writes the
# pairs and host metadata as JSON (consim.perf_ab.v1).
#
# With --trace the runs are `perfbench/run.py --trace 1` instead, and
# the metrics are the per-layer ledger's (host time per simulator
# layer, and the simulated work): the document (consim.trace_ab.v1)
# holds each side's per-layer medians and quartiles, and no metric is
# judged against a bound.
#
# Exits 1 when a median crosses its BENCHMARK.json bound in the worse
# direction, or when the change fails a larger share of operations
# than the base; exits 2 on bad usage or when a run produces no result.
#
# Usage: tools/perf_ab.sh [--trace] [--out FILE] <base-ref> [pairs] [seed]
#   pairs      A/B pairs per workload (default 3)
#   seed       perfbench seed (default 1)
#   --trace    A/B the per-layer ledger, not the end-to-end metrics
#   --out      JSON document to write (default perf_ab.json)
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
    sed -n '/^# Usage:/,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
}

out=perf_ab.json
trace=0
positional=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --out) [[ $# -ge 2 && -n "$2" ]] || usage; out="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        -*) usage ;;
        *) positional+=("$1"); shift ;;
    esac
done
[[ ${#positional[@]} -ge 1 && ${#positional[@]} -le 3 ]] || usage
base_ref="${positional[0]}"
pairs="${positional[1]:-3}"
seed="${positional[2]:-1}"
[[ "$pairs" =~ ^[1-9][0-9]*$ && "$seed" =~ ^[0-9]+$ ]] || usage

base_commit="$(git rev-parse --verify --quiet "$base_ref^{commit}")" || {
    echo "perf_ab: unknown base ref '$base_ref'" >&2; exit 2; }
base_dir="$(mktemp -d)"
trap 'rm -rf "$base_dir"' EXIT
git archive "$base_commit" | tar -x -C "$base_dir"

python3 - "$base_dir" "$base_ref" "$base_commit" "$pairs" "$seed" \
    "$out" "$trace" <<'PY'
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

base_dir, base_ref, base_commit, pairs, seed, out, trace = sys.argv[1:]
pairs, seed, trace = int(pairs), int(seed), trace == "1"
change_dir = Path.cwd()
spec = json.loads((change_dir / "BENCHMARK.json").read_text())
seconds = int(spec["run_seconds"])
names = [w["name"] for w in spec["workloads"]]
metrics = spec["per_layer" if trace else "end_to_end"]
sides = {"base": Path(base_dir), "change": change_dir}


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def host():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"host_cpus": os.cpu_count(), "cpu_model": model,
            "machine": platform.machine(), "kernel": platform.release(),
            "python": platform.python_version(),
            "loadavg_1m": round(os.getloadavg()[0], 2)}


def perfbench(side, workload):
    """One perfbench run on one side; its result line, or exit 2."""
    root = sides[side]
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"perf_ab: perfbench failed on the {side} side "
                 f"({workload}, exit {proc.returncode})")
    doc = json.loads(lines[-1])
    doc["loadavg_1m_after"] = round(os.getloadavg()[0], 2)
    return doc


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


run = {
    "schema": "consim.trace_ab.v1" if trace else "consim.perf_ab.v1",
    "what": f"alternating perfbench/run.py --trace {int(trace)} pairs"
            f"{' (per-layer ledger)' if trace else ''}, base vs change, "
            "on one host",
    "base": {"ref": base_ref, "commit": base_commit},
    "change": {"commit": git("rev-parse", "HEAD"),
               "dirty": bool(git("status", "--porcelain",
                                 "--untracked-files=no"))},
    "host": host(),
    "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "seed": seed, "pairs": pairs, "seconds": seconds,
    "workloads": {},
}
worse = []
for workload in names:
    recs = []
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        rec = {"pair": i + 1, "first": order[0]}
        for side in order:
            print(f"perf_ab: {workload} pair {i + 1}/{pairs} {side}",
                  file=sys.stderr, flush=True)
            rec[side] = perfbench(side, workload)
        recs.append(rec)
    summary = {}
    print(f"\n{workload} (seed {seed}, {pairs} pairs, {seconds} s): "
          "median [q1, q3]")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [r[s]["metrics"][name]["value"] for r in recs]
                for s in sides}
        med = {s: statistics.median(vals[s]) for s in sides}
        ratio = (med["change"] / med["base"] if med["base"] else
                 1.0 if med["change"] == med["base"] else float("inf"))
        # Per-layer metrics have no bound: they locate a change, the
        # end-to-end metrics judge it.
        crossed = "bound" in m and ((ratio > 1 + m["bound"]) if lower else
                                    (ratio < 1 - m["bound"]))
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(vals["base"], vals["change"]))
        summary[name] = {
            "unit": m["unit"], "better": m["better"],
            **({"bound": m["bound"]} if "bound" in m else {}),
            **{f"{s}_median": med[s] for s in sides},
            **{f"{s}_q1": quartiles(vals[s])[0] for s in sides},
            **{f"{s}_q3": quartiles(vals[s])[1] for s in sides},
            "ratio": ratio, "change_wins": wins,
            **({"crosses_bound": crossed} if "bound" in m else {}),
        }
        if crossed:
            worse.append(f"{workload} {name} ratio {ratio:.3f}")
        fmt = lambda s: (f"{med[s]:.4g} [{quartiles(vals[s])[0]:.4g}, "
                         f"{quartiles(vals[s])[1]:.4g}]")
        print(f"  {name:14s} base {fmt('base'):30s} change "
              f"{fmt('change'):30s} ratio {ratio:.3f}  wins "
              f"{wins}/{pairs}{'  WORSE THAN BOUND' if crossed else ''}")
    failed = {s: (sum(r[s]["failed"] for r in recs),
                  sum(r[s]["attempted"] for r in recs)) for s in sides}
    summary["failed"] = {s: {"failed": f, "attempted": a}
                         for s, (f, a) in failed.items()}
    share = {s: f / a if a else 1.0 for s, (f, a) in failed.items()}
    if share["change"] > share["base"]:
        worse.append(f"{workload} failed share {share['change']:.3f} > "
                     f"base {share['base']:.3f}")
    print(f"  failed         base {failed['base'][0]}/{failed['base'][1]}"
          f"  change {failed['change'][0]}/{failed['change'][1]}")
    run["workloads"][workload] = {"pairs": recs, "summary": summary}
run["verdict"] = "worse" if worse else "ok"
Path(out).write_text(json.dumps(run, indent=2) + "\n")
print(f"\nperf_ab: wrote {out}")
if worse:
    print("perf_ab: FAIL: " + "; ".join(worse), file=sys.stderr)
    sys.exit(1)
print("perf_ab: " + ("no more failed operations than the base" if trace
                     else "every median is within its BENCHMARK.json bound"))
PY
