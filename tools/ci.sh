#!/usr/bin/env bash
# CI gate: tier-1 verify (warning-free full build + test suite), resume
# equivalence
# (an interrupted+resumed run must match the uninterrupted one byte for
# byte) on the 16-core chip, a resume chain (a resumed run that trips
# again must save its own snapshot, and that must resume; a flag the
# resume would ignore is refused; a refused snapshot exits 1 at the
# default check level; a snapshot, document, report, table, mutant
# line or example's output lost to a failed write is an error, and
# the example refuses an argument with exit 2), a scale-out smoke
# (the same at 32 cores, 8 VMs), a scale-to-256 smoke (the same at 128
# cores, over-committed), a set-up scaling check (the 1-cycle probe's
# peak RSS at 1,024 cores within 4.5x of the 256-core probe's), a
# --dump-stats check (the dump must report the very
# run the plain path reports, and --csv the threads that ran), an env
# edge check (run knobs set through the env and through flags make
# the same envelope), a paper-figures check (one all-tables run of
# bench/paper_figures prints and writes exactly what the nineteen solo
# runs do, one bench.v1 document each), a zero-allocation
# assertion over the measure window, an isolation smoke (QoS must
# protect the VM) and a dyn-sched smoke (migration must beat the
# static placement on the bursty mix, resume across migration epochs
# must be byte-identical, random migration must swap at every epoch
# boundary under the checked-mode binding audit, and the retired
# --migrate option must be refused), a checkpoint mutation stage
# (4,000 one-leaf edits of four snapshots, each resumed in its own
# process: none may die of a signal or hang), a
# checked-mode pass (full suite with every runtime invariant checker
# enabled) plus a fault-injection smoke over the whole catalog, a
# snapshot interchange check (a base commit's build and this tree's
# write byte-identical snapshots and resume each other's), a
# statistics identity check (both builds dump byte-identical
# statistics on the four perfbench points, on an over-committed
# random dyn-sched point and on a mesh QoS point) and a same-host
# perf A/B against that base
# commit (tools/perf_ab.sh; all three only with --perf-base), an
# ASan+UBSan pass over the whole tier-1 suite
# (memory safety of the registry, JSON layer, and simulator core),
# plus a ThreadSanitizer
# pass over the concurrency surface (the parallel sweep with every
# sweep test, the event queue, and multi-seed QoS and migrating runs
# on sweep threads).
#
# Usage: tools/ci.sh [--skip-tsan] [--skip-asan] [--skip-checked]
#                    [--perf-base <ref>]
set -euo pipefail

cd "$(dirname "$0")/.."

skip_tsan=0
skip_asan=0
skip_checked=0
perf_base=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --skip-tsan) skip_tsan=1 ;;
        --skip-asan) skip_asan=1 ;;
        --skip-checked) skip_checked=1 ;;
        --perf-base)
            [[ $# -ge 2 && -n "$2" ]] || {
                echo "--perf-base needs a git ref" >&2; exit 2; }
            perf_base="$2"; shift ;;
        *) echo "unknown option: $1" >&2; exit 2 ;;
    esac
    shift
done

# One work directory for every stage's files, removed on any exit.
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "=== tier-1: warning-free build + full test suite ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "=== resume equivalence: interrupted+resumed == uninterrupted ==="
# 2M simulated cycles, snapshot at 1M, deadline-trip at 1.1M, resume
# from the snapshot: the result block of the resumed run must be
# byte-identical to the uninterrupted run. (The config echo alone may
# differ — the tripped run carries the deadline knob — so compare from
# the result object onward.)
ckpt_dir="$work/resume"
mkdir "$ckpt_dir"
./build/tools/consim_run --vm tpcw --vm jbb \
    --warmup 1000000 --measure 1000000 --watchdog 200000 \
    --json "$ckpt_dir/full.json" >/dev/null
if ./build/tools/consim_run --vm tpcw --vm jbb \
    --warmup 1000000 --measure 1000000 --watchdog 200000 \
    --deadline 1100000 --ckpt-every 1000000 \
    --ckpt-out "$ckpt_dir/trip.ckpt" >/dev/null 2>&1; then
    echo "resume equivalence: deadline run unexpectedly succeeded" >&2
    exit 1
fi
[[ -s "$ckpt_dir/trip.ckpt" ]] || {
    echo "resume equivalence: no checkpoint written" >&2; exit 1; }
./build/tools/consim_run --resume "$ckpt_dir/trip.ckpt" \
    --json "$ckpt_dir/resumed.json" >/dev/null
awk '/"result": \{/,0' "$ckpt_dir/full.json" >"$ckpt_dir/full.result"
awk '/"result": \{/,0' "$ckpt_dir/resumed.json" >"$ckpt_dir/resumed.result"
diff -u "$ckpt_dir/full.result" "$ckpt_dir/resumed.result" || {
    echo "resume equivalence: resumed result diverged" >&2; exit 1; }
echo "resume equivalence: result blocks byte-identical"

echo "=== resume chain: a resumed run that trips keeps its snapshot ==="
# A wedged core trips the watchdog at every attempt. Snapshots come
# more often than watchdog checks, and a resumed run re-arms the
# watchdog from its restore cycle, so the resumed run snapshots again
# before it trips. --ckpt-out must save that newer snapshot too, and
# it must resume (and trip) in turn.
chain_dir="$work/chain"
mkdir "$chain_dir"
chain_args=(--vm tpcw --vm jbb --warmup 20000 --measure 40000
    --watchdog 10000 --ckpt-every 4000 --fault "wedge:core=3,at=15000")
run_chain() {
    local out="$1"; shift
    local rc=0
    ./build/tools/consim_run "$@" --ckpt-out "$out" >/dev/null 2>&1 ||
        rc=$?
    [[ "$rc" == 1 ]] || {
        echo "resume chain: wanted exit 1 (watchdog), got $rc" >&2
        exit 1; }
    [[ -s "$out" ]] || {
        echo "resume chain: no checkpoint written to $out" >&2; exit 1; }
}
run_chain "$chain_dir/a.ckpt" "${chain_args[@]}"
run_chain "$chain_dir/b.ckpt" --resume "$chain_dir/a.ckpt"
cmp -s "$chain_dir/a.ckpt" "$chain_dir/b.ckpt" && {
    echo "resume chain: second snapshot equals the first" >&2; exit 1; }
run_chain "$chain_dir/c.ckpt" --resume "$chain_dir/b.ckpt"
echo "resume chain: each resumed trip saved a resumable snapshot"
# The checkpoint carries the run config: a flag that would change it
# is refused (exit 2), never silently dropped.
rc=0
./build/tools/consim_run --resume "$chain_dir/a.ckpt" --measure 5 \
    >/dev/null 2>&1 || rc=$?
[[ "$rc" == 2 ]] || {
    echo "resume chain: --resume with --measure wanted exit 2, got $rc" >&2
    exit 1; }
echo "resume chain: --resume refuses a flag it would ignore"
# A snapshot that restore refuses is bad input: the resume exits 1
# naming the refused field at the default check level too, never
# dies of a signal.
python3 - "$chain_dir/a.ckpt" "$chain_dir/bad.ckpt" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
d["machine"]["stats"]["children"]["vm00"]["stats"]["l2_misses"] = -5
json.dump(d, open(sys.argv[2], "w"))
PY
rc=0
./build/tools/consim_run --resume "$chain_dir/bad.ckpt" \
    >/dev/null 2>"$chain_dir/bad.err" || rc=$?
[[ "$rc" == 1 ]] &&
    grep -q 'bad stats record (machine.stats.children.vm00.stats.l2_misses' \
        "$chain_dir/bad.err" || {
    echo "resume chain: a refused snapshot wanted exit 1 naming its" \
        "field, got $rc" >&2
    exit 1; }
echo "resume chain: a refused snapshot exits 1 at the default level"
# /dev/full opens, then refuses every byte. The tripped run must say
# that its snapshot was lost (it still exits 1, on the watchdog); a
# run whose --json document or --csv report is lost, and a bench whose
# table is, must exit 1.
rc=0
./build/tools/consim_run "${chain_args[@]}" --ckpt-out /dev/full \
    >/dev/null 2>"$chain_dir/full.err" || rc=$?
[[ "$rc" == 1 ]] &&
    grep -q 'cannot write the pre-trip checkpoint' "$chain_dir/full.err" &&
    ! grep -q 'wrote pre-trip checkpoint' "$chain_dir/full.err" || {
    echo "resume chain: a snapshot lost to /dev/full was not reported" \
        "(exit $rc)" >&2
    exit 1; }
rc=0
./build/tools/consim_run --mix "Mix 5" --warmup 1000 --measure 1000 \
    --json /dev/full >/dev/null 2>&1 || rc=$?
[[ "$rc" == 1 ]] || {
    echo "resume chain: --json /dev/full wanted exit 1, got $rc" >&2
    exit 1; }
rc=0
./build/tools/consim_run --mix "Mix 5" --warmup 1000 --measure 1000 \
    --csv >/dev/full 2>"$chain_dir/csv.err" || rc=$?
[[ "$rc" == 1 ]] && grep -q 'standard output' "$chain_dir/csv.err" || {
    echo "resume chain: --csv >/dev/full wanted exit 1 naming standard" \
        "output, got $rc" >&2
    exit 1; }
rc=0
CONSIM_WARMUP=1000 CONSIM_MEASURE=1000 ./build/bench/paper_figures \
    ablation_noc >/dev/full 2>"$chain_dir/table.err" || rc=$?
[[ "$rc" == 1 ]] && grep -q 'standard output' "$chain_dir/table.err" || {
    echo "resume chain: paper_figures ablation_noc >/dev/full wanted" \
        "exit 1 naming standard output, got $rc" >&2
    exit 1; }
# ckpt_mutate's one line is the edited leaf, which the mutation stage
# reads through $(...).
rc=0
./build/tools/ckpt_mutate "$chain_dir/a.ckpt" 1 0 "$chain_dir/m.ckpt" \
    >/dev/full 2>"$chain_dir/mutant.err" || rc=$?
[[ "$rc" == 1 ]] && grep -q 'standard output' "$chain_dir/mutant.err" || {
    echo "resume chain: ckpt_mutate >/dev/full wanted exit 1 naming" \
        "standard output, got $rc" >&2
    exit 1; }
rc=0
CONSIM_WARMUP=1000 CONSIM_MEASURE=1000 ./build/examples/quickstart \
    >/dev/full 2>"$chain_dir/example.err" || rc=$?
[[ "$rc" == 1 ]] && grep -q 'standard output' "$chain_dir/example.err" || {
    echo "resume chain: quickstart >/dev/full wanted exit 1 naming" \
        "standard output, got $rc" >&2
    exit 1; }
rc=0
./build/examples/quickstart junk >/dev/null 2>"$chain_dir/example.err" ||
    rc=$?
[[ "$rc" == 2 ]] && grep -q "unexpected argument 'junk'" \
    "$chain_dir/example.err" || {
    echo "resume chain: quickstart junk wanted exit 2 naming the" \
        "argument, got $rc" >&2
    exit 1; }
echo "resume chain: a snapshot, document, report, table, mutant line or" \
    "example output lost to /dev/full is an error"

echo "=== scale-out smoke: 32-core chip, 8 VMs ==="
# The parametric scale model must uphold the resume contract beyond
# the paper's 16-core chip: an interrupted+resumed run matches the
# uninterrupted one.
scale_dir="$work/scale"
mkdir "$scale_dir"
scale_args=(--mesh 8x4 --sharing 8
    --vm jbb --vm tpcw --vm tpch --vm web
    --vm jbb --vm tpcw --vm tpch --vm web
    --warmup 600000 --measure 600000 --watchdog 200000)
./build/tools/consim_run "${scale_args[@]}" \
    --json "$scale_dir/full.json" >/dev/null
if ./build/tools/consim_run "${scale_args[@]}" \
    --deadline 700000 --ckpt-every 600000 \
    --ckpt-out "$scale_dir/trip.ckpt" >/dev/null 2>&1; then
    echo "scale-out smoke: deadline run unexpectedly succeeded" >&2
    exit 1
fi
[[ -s "$scale_dir/trip.ckpt" ]] || {
    echo "scale-out smoke: no checkpoint written" >&2; exit 1; }
./build/tools/consim_run --resume "$scale_dir/trip.ckpt" \
    --json "$scale_dir/resumed.json" >/dev/null
awk '/"result": \{/,0' "$scale_dir/full.json" >"$scale_dir/full.result"
awk '/"result": \{/,0' "$scale_dir/resumed.json" >"$scale_dir/resumed.result"
diff -u "$scale_dir/full.result" "$scale_dir/resumed.result" || {
    echo "scale-out smoke: resumed result diverged at 32 cores" >&2
    exit 1; }
echo "scale-out smoke: 32-core resume byte-identical"

echo "=== scale-to-256 smoke: 128-core chip, over-committed ==="
# The same contract at the consolidation-study scale: a 16x8 mesh
# running Mix 1 with 1.5x over-committed schedules (192 threads on 128
# cores, so the time-sliced context rotation is live). Short windows —
# this is a correctness smoke, not a perf point (perfbench's over64 and
# chip256 workloads own the throughput numbers at scale).
big_dir="$work/big"
mkdir "$big_dir"
big_args=(--mesh 16x8 --sharing 8
    --vm jbb --vm tpcw --vm tpch --vm web
    --vm-threads 48,48,48,48
    --warmup 10000 --measure 10000 --watchdog 20000)
./build/tools/consim_run "${big_args[@]}" \
    --json "$big_dir/full.json" >/dev/null
if ./build/tools/consim_run "${big_args[@]}" \
    --deadline 12000 --ckpt-every 10000 \
    --ckpt-out "$big_dir/trip.ckpt" >/dev/null 2>&1; then
    echo "scale-to-256 smoke: deadline run unexpectedly succeeded" >&2
    exit 1
fi
[[ -s "$big_dir/trip.ckpt" ]] || {
    echo "scale-to-256 smoke: no checkpoint written" >&2; exit 1; }
./build/tools/consim_run --resume "$big_dir/trip.ckpt" \
    --json "$big_dir/resumed.json" >/dev/null
awk '/"result": \{/,0' "$big_dir/full.json" >"$big_dir/full.result"
awk '/"result": \{/,0' "$big_dir/resumed.json" >"$big_dir/resumed.result"
diff -u "$big_dir/full.result" "$big_dir/resumed.result" || {
    echo "scale-to-256 smoke: resumed result diverged at 128 cores" >&2
    exit 1; }
echo "scale-to-256 smoke: 128-core resume byte-identical"

echo "=== set-up scaling: 1,024 cores hold at most 4.5x the RSS of 256 ==="
# The 1-cycle Mix 5 probe, one thread per core, in 16-core groups at
# 256 and at 1,024 cores. The banks' and slices' transaction tables
# are sized for the whole machine, so set-up memory grows about
# linearly in cores; tables sized per unit for every core grew it 8.3x
# over this step.
probe_rss_kb() {
    python3 - "$@" <<'PY'
import resource
import subprocess
import sys

subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
PY
}
probe_args=(--mix "Mix 5" --sharing 16 --warmup 1 --measure 1)
rss256="$(probe_rss_kb ./build/tools/consim_run "${probe_args[@]}" \
    --mesh 16x16 --vm-threads 64,64,64,64)"
rss1024="$(probe_rss_kb ./build/tools/consim_run "${probe_args[@]}" \
    --mesh 32x32 --vm-threads 256,256,256,256)"
awk -v a="$rss256" -v b="$rss1024" 'BEGIN {
    printf "set-up scaling: peak RSS %d KiB at 256 cores, %d KiB at" \
        " 1,024 (x%.2f)\n", a, b, b / a
    exit !(b <= 4.5 * a) }' || {
    echo "set-up scaling: 1,024-core peak RSS above 4.5x the 256-core" >&2
    exit 1; }

echo "=== dump-stats: the dump reports the plain run ==="
# --dump-stats must run exactly the point the plain path runs: same
# per-VM table on stdout (the component statistics follow it), and the
# same result block in its envelope. Heterogeneous thread counts and a
# short timeslice make any knob the dump path dropped show up.
dump_dir="$work/dump"
mkdir "$dump_dir"
dump_args=(--mix "Mix 5" --vm-threads 2,2,2,2 --timeslice 4000
    --warmup 20000 --measure 40000)
./build/tools/consim_run "${dump_args[@]}" \
    --json "$dump_dir/plain.json" >"$dump_dir/plain.txt"
./build/tools/consim_run "${dump_args[@]}" --dump-stats \
    --json "$dump_dir/dump.json" >"$dump_dir/dump.txt"
head -n "$(wc -l <"$dump_dir/plain.txt")" "$dump_dir/dump.txt" |
    diff -u "$dump_dir/plain.txt" - || {
    echo "dump-stats: table differs from the plain run" >&2; exit 1; }
grep -q '^# component statistics$' "$dump_dir/dump.txt" || {
    echo "dump-stats: no component statistics printed" >&2; exit 1; }
# The result block, minus the comma a following "stats" member adds.
result_block() {
    awk '/^  "result": \{/,/^  \}/ { sub(/^  \},$/, "  }"); print }' "$1"
}
result_block "$dump_dir/plain.json" >"$dump_dir/plain.result"
result_block "$dump_dir/dump.json" >"$dump_dir/dump.result"
[[ -s "$dump_dir/plain.result" ]] &&
    diff -u "$dump_dir/plain.result" "$dump_dir/dump.result" || {
    echo "dump-stats: result block differs from the plain run" >&2; exit 1; }
grep -q '^  "stats": {' "$dump_dir/dump.json" || {
    echo "dump-stats: no stats member in the envelope" >&2; exit 1; }
echo "dump-stats: table and result block match the plain run"
# --csv reports the threads each VM ran, not its profile default (4).
./build/tools/consim_run "${dump_args[@]}" --csv >"$dump_dir/plain.csv"
csv_threads="$(awk -F, 'NR > 1 { print $3 }' "$dump_dir/plain.csv" |
    sort -u | tr '\n' ' ')"
[[ "$csv_threads" == "2 " ]] || {
    echo "dump-stats: --csv threads column is '$csv_threads', want 2" >&2
    exit 1; }
echo "dump-stats: --csv threads column reports the configured threads"

echo "=== env edge: env knobs and flags make the same envelope ==="
# RunConfig::fromEnv is the only reader of the run knobs, so a point
# set through CONSIM_WARMUP/MEASURE/WATCHDOG/TIMESLICE must run and
# echo exactly what the same point set through flags does. The
# over-committed mix keeps the timeslice live.
env_dir="$work/env"
mkdir "$env_dir"
env_args=(--mix "Mix 5" --vm-threads 8,8,8,8)
CONSIM_WARMUP=3000 CONSIM_MEASURE=2000 CONSIM_WATCHDOG=500000 \
    CONSIM_TIMESLICE=4000 ./build/tools/consim_run "${env_args[@]}" \
    --json "$env_dir/env.json" >/dev/null
./build/tools/consim_run "${env_args[@]}" --warmup 3000 --measure 2000 \
    --watchdog 500000 --timeslice 4000 \
    --json "$env_dir/flags.json" >/dev/null
diff -u "$env_dir/flags.json" "$env_dir/env.json" || {
    echo "env edge: env-set envelope differs from the flag-set one" >&2
    exit 1; }
echo "env edge: env and flag envelopes byte-identical"

echo "=== paper figures: one union run == nineteen solo runs ==="
# paper_figures runs each distinct point of every table (Table II,
# Figs. 2-15 and 17, the two ablations and the future-work
# extensions) once and renders every table from the shared runs. At
# 100k-cycle windows, where the normalized tables are not degenerate
# (fig15 and fig17 fix their own), the all-tables run must write one
# consim.bench.v1 document per table and print, section by section,
# and write, file by file, exactly what each table's solo run does. A
# stray argument exits 2.
fig_dir="$work/figures"
mkdir "$fig_dir"
fig_ids=(table2 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
    fig12 fig13 fig14 fig15 fig17 ablation_protocol ablation_noc
    ext_future_work)
paper_figures() {
    CONSIM_WARMUP=100000 CONSIM_MEASURE=100000 \
        ./build/bench/paper_figures "$@"
}
paper_figures --json "$fig_dir/all" >"$fig_dir/all.txt"
[[ "$(ls "$fig_dir/all" | wc -l)" == "${#fig_ids[@]}" ]] || {
    echo "paper figures: want ${#fig_ids[@]} documents in all/" >&2
    exit 1; }
for id in "${fig_ids[@]}"; do
    [[ "$(grep -c '^  "schema": "consim.bench.v1",$' \
        "$fig_dir/all/$id.json")" == 1 ]] || {
        echo "paper figures: $id.json is no consim.bench.v1 document" >&2
        exit 1; }
    paper_figures "$id" --json "$fig_dir/$id" >"$fig_dir/$id.txt"
    cmp "$fig_dir/all/$id.json" "$fig_dir/$id/$id.json" || {
        echo "paper figures: $id.json differs from its solo run" >&2
        exit 1; }
done
(cd "$fig_dir" && cat "${fig_ids[@]/%/.txt}") >"$fig_dir/solo.txt"
diff -u "$fig_dir/solo.txt" "$fig_dir/all.txt" || {
    echo "paper figures: all-figures stdout differs from the solo runs" >&2
    exit 1; }
rc=0
./build/bench/paper_figures --bogus >/dev/null 2>&1 || rc=$?
[[ "$rc" == 2 ]] || {
    echo "paper figures: --bogus wanted exit 2, got $rc" >&2; exit 1; }
echo "paper figures: union run matches the nineteen solo runs"

echo "=== zero-allocation: measure window allocates nothing ==="
# The pooled/arena hot paths must keep the steady state off the heap:
# the global operator-new hook counts every allocation inside the
# measure window across paper-machine, ideal-NoC, 64-core, 128-group,
# 256-core and over-committed configurations, and the count must be
# exactly zero.
./build/tests/test_alloc_steady_state
echo "zero-allocation: measure window clean"

echo "=== isolation smoke: protected VM vs bullies, QoS bound ==="
# A protected SPECjbb VM against three 4-thread bully antagonists on a
# bandwidth-constrained 2 MB-LLC node (the fig15 scenario, shrunk).
# QoS (way partition + reserved VC + MC token buckets) must cut the
# protected VM's cycles/transaction by a real margin, and the throttle
# stalls must land on the bullies (mc_throttle_stalls present only in
# the QoS envelope, and only on bully VMs).
iso_dir="$work/iso"
mkdir "$iso_dir"
# Fully-shared LLC: with the default 4-core groups the bullies never
# touch the protected VM's bank and the way restriction is pure loss.
iso_args=(--vm jbb --vm bully --vm bully --vm bully
    --vm-threads 0,4,4,4 --sharing 16 --l2 2097152 --mem-issue 96
    --warmup 300000 --measure 600000 --watchdog 200000)
iso_qos="static:vm=0,ways=2,vcs=1,tokens=1,refill=2048"
./build/tools/consim_run "${iso_args[@]}" \
    --json "$iso_dir/noqos.json" >/dev/null
./build/tools/consim_run "${iso_args[@]}" --qos "$iso_qos" \
    --json "$iso_dir/qos.json" >/dev/null
cpt() {
    grep -o '"cycles_per_transaction": *[0-9.e+]*' "$1" |
        head -n1 | sed 's/.*: *//'
}
noqos_cpt="$(cpt "$iso_dir/noqos.json")"
qos_cpt="$(cpt "$iso_dir/qos.json")"
[[ -n "$noqos_cpt" && -n "$qos_cpt" ]] || {
    echo "isolation smoke: cannot extract cycles_per_transaction" >&2
    exit 1; }
awk -v noqos="$noqos_cpt" -v qos="$qos_cpt" 'BEGIN {
    bound = noqos * 0.95;
    printf "isolation smoke: protected cy/txn %s (QoS) vs %s (no QoS," \
           " bound %.0f)\n", qos, noqos, bound;
    exit (qos + 0 < bound) ? 0 : 1;
}' || {
    echo "isolation smoke: QoS failed to protect the VM" >&2; exit 1; }
grep -q '"mc_throttle_stalls"' "$iso_dir/qos.json" || {
    echo "isolation smoke: no throttle stalls reported under QoS" >&2
    exit 1; }
if grep -q '"mc_throttle_stalls"' "$iso_dir/noqos.json"; then
    echo "isolation smoke: throttle stalls leaked into no-QoS envelope" >&2
    exit 1
fi
echo "isolation smoke: QoS bound holds, stalls land on the bullies"

echo "=== dyn-sched smoke: migration beats static on the bursty mix ==="
# The fig17 bursty scenario, single point: three 4-thread Bursty VMs
# on a sharing-2 chip with a 2 MB LLC. Contention-aware migration must
# commit more transactions than the static affinity placement over the
# same window (same measured cycles, so more transactions == lower
# aggregate cy/txn), must actually migrate, and a run interrupted and
# resumed across migration epochs must match the uninterrupted run
# byte-for-byte.
dyn_dir="$work/dyn"
mkdir "$dyn_dir"
dyn_args=(--vm bursty --vm bursty --vm bursty --vm-threads 4,4,4
    --sharing 2 --l2 2097152
    --warmup 200000 --measure 1200000 --watchdog 200000)
dyn_spec="contention-aware,epoch=25000"
./build/tools/consim_run "${dyn_args[@]}" \
    --json "$dyn_dir/static.json" >/dev/null
./build/tools/consim_run "${dyn_args[@]}" --dyn-sched "$dyn_spec" \
    --json "$dyn_dir/dyn.json" >/dev/null
txns() {
    grep -o '"transactions": *[0-9]*' "$1" |
        sed 's/.*: *//' | awk '{ s += $1 } END { print s }'
}
static_txns="$(txns "$dyn_dir/static.json")"
dyn_txns="$(txns "$dyn_dir/dyn.json")"
[[ -n "$static_txns" && -n "$dyn_txns" ]] || {
    echo "dyn-sched smoke: cannot extract transactions" >&2; exit 1; }
# Fixed 1% margin: the run is deterministic (seed 1 commits 930 vs
# 913 transactions, +1.9%), so host noise cannot erode the gate.
awk -v dyn="$dyn_txns" -v st="$static_txns" 'BEGIN {
    bound = st * 1.01;
    printf "dyn-sched smoke: %s txns (dynamic) vs %s (static," \
           " bound %.0f)\n", dyn, st, bound;
    exit (dyn + 0 > bound) ? 0 : 1;
}' || {
    echo "dyn-sched smoke: migration failed to beat static placement" >&2
    exit 1; }
grep -q '"dyn_migrations"' "$dyn_dir/dyn.json" || {
    echo "dyn-sched smoke: no migrations reported" >&2; exit 1; }
if grep -q '"dyn_migrations"' "$dyn_dir/static.json"; then
    echo "dyn-sched smoke: migrations leaked into the static envelope" >&2
    exit 1
fi
if ./build/tools/consim_run "${dyn_args[@]}" --dyn-sched "$dyn_spec" \
    --deadline 700000 --ckpt-every 600000 \
    --ckpt-out "$dyn_dir/trip.ckpt" >/dev/null 2>&1; then
    echo "dyn-sched smoke: deadline run unexpectedly succeeded" >&2
    exit 1
fi
[[ -s "$dyn_dir/trip.ckpt" ]] || {
    echo "dyn-sched smoke: no checkpoint written" >&2; exit 1; }
./build/tools/consim_run --resume "$dyn_dir/trip.ckpt" \
    --json "$dyn_dir/resumed.json" >/dev/null
awk '/"result": \{/,0' "$dyn_dir/dyn.json" >"$dyn_dir/dyn.result"
awk '/"result": \{/,0' "$dyn_dir/resumed.json" >"$dyn_dir/resumed.result"
diff -u "$dyn_dir/dyn.result" "$dyn_dir/resumed.result" || {
    echo "dyn-sched smoke: resumed migrating run diverged" >&2; exit 1; }
# Random migration (the paper's SSVII churn) is never judged, so it
# swaps at every epoch boundary with no rebind still latched: 56 in
# this 1.4M-cycle run. --check full runs the binding audit at both
# window boundaries.
./build/tools/consim_run "${dyn_args[@]}" --dyn-sched random,epoch=25000 \
    --check full --json "$dyn_dir/random.json" >/dev/null
random_migs="$(grep -o '"dyn_migrations": *[0-9]*' "$dyn_dir/random.json" |
    sed 's/.*: *//')"
[[ -n "$random_migs" && "$random_migs" -ge 53 ]] || {
    echo "dyn-sched smoke: random migrated ${random_migs:-0} times" \
        "at 56 epoch boundaries (want >= 53)" >&2
    exit 1; }
# --dyn-sched random replaced --migrate, which is now unknown (exit 2).
rc=0
./build/tools/consim_run --migrate 5 >/dev/null 2>&1 || rc=$?
[[ "$rc" == 2 ]] || {
    echo "dyn-sched smoke: --migrate wanted exit 2, got $rc" >&2; exit 1; }
echo "dyn-sched smoke: dynamic wins, resume across migrations clean," \
    "random migrated $random_migs of 56 epochs"

echo "=== checkpoint mutation: every one-leaf edit is refused or runs ==="
# tools/ckpt_mutation.hh edits one leaf outside machine.stats of a
# deadline-tripped snapshot (mix16, ideal16, over64, and mix16 with
# QoS and dyn-sched armed); each mutant resumes with --check full in
# its own process, under a timeout. Outcomes: refused (exit 1 naming
# the checkpoint, or a fatal config error, before a cycle runs), exit
# 0, failed later (exit 1 otherwise: DESIGN §8 names the leaves restore
# cannot check), signal, timeout. Any signal or timeout fails CI.
mut_dir="$work/mutation"
mkdir "$mut_dir"
mut_snapshot() {
    local name="$1"; shift
    if ./build/tools/consim_run --mix "Mix 5" --warmup 20000 \
        --measure 40000 --deadline 30000 --ckpt-every 25000 "$@" \
        --ckpt-out "$mut_dir/$name.ckpt" >/dev/null 2>&1 ||
        [[ ! -s "$mut_dir/$name.ckpt" ]]; then
        echo "checkpoint mutation: $name did not trip" >&2; exit 1
    fi
}
mut_snapshot mix16 --mesh 4x4 --sharing 4
mut_snapshot ideal16 --mesh 4x4 --sharing 4 --ideal-noc
mut_snapshot over64 --mesh 8x8 --sharing 8 --vm-threads 24,24,24,24
mut_snapshot qosdyn --mesh 4x4 --sharing 4 \
    --dyn-sched contention-aware,epoch=3000 \
    --qos dynamic:vm=0,ways=2,vcs=1,tokens=1,refill=512,epoch=3000
# mutate_one SNAPSHOT SEED INDEX prints "OUTCOME SNAPSHOT LEAF VALUE".
mutate_one() {
    local m="$mut_dir/$1.$2.$3" rc=0 outcome edit
    edit="$(./build/tools/ckpt_mutate "$mut_dir/$1.ckpt" "$2" "$3" \
        "$m.ckpt")"
    timeout 120 ./build/tools/consim_run --resume "$m.ckpt" \
        --check full >/dev/null 2>"$m.err" || rc=$?
    if [[ "$rc" == 0 ]]; then outcome=exit-0
    elif [[ "$rc" == 124 ]]; then outcome=timeout
    elif [[ "$rc" -gt 128 ]]; then outcome=signal
    elif [[ "$rc" == 1 ]] && grep -qE \
        '^consim_run: [a-z]+ error: .*checkpoint|^fatal:' "$m.err"; then
        outcome=refused
    elif [[ "$rc" == 1 ]]; then outcome=failed-later
    else outcome="exit-$rc"; fi
    rm -f "$m.ckpt" "$m.err"
    echo "$outcome $1 $edit"
}
export -f mutate_one
export mut_dir
for seed in 1 2; do
    for snap in mix16 ideal16 over64 qosdyn; do
        seq 0 499 | sed "s/^/$snap $seed /"
    done | xargs -P "$(nproc)" -n 3 bash -c 'mutate_one "$@"' _ \
        >"$mut_dir/seed$seed.txt"
    echo "checkpoint mutation: seed $seed, $(wc -l <"$mut_dir/seed$seed.txt")" \
        "mutants"
    awk '{ print $1 }' "$mut_dir/seed$seed.txt" | sort | uniq -c
    grep '^failed-later ' "$mut_dir/seed$seed.txt" || true
    if grep -qvE '^(refused|exit-0|failed-later) ' "$mut_dir/seed$seed.txt"
    then
        grep -vE '^(refused|exit-0|failed-later) ' "$mut_dir/seed$seed.txt" >&2
        echo "checkpoint mutation: a mutant died or hung" >&2
        exit 1
    fi
done

if [[ "$skip_checked" == 1 ]]; then
    echo "=== checked mode: skipped ==="
else
    echo "=== checked mode: full test suite under CONSIM_CHECK=full ==="
    # Death tests assert the off-level abort behaviour that checked
    # mode deliberately replaces with recoverable SimErrors.
    (cd build && CONSIM_CHECK=full ctest --output-on-failure \
        -j "$(nproc)" -E 'DeathTest')

    echo "=== fault-injection smoke: every catalog fault must be caught ==="
    # Each catalog fault stalls a core of a fully shared TPC-H run;
    # consim_run must stop on the watchdog: exit 1, the trip on stderr.
    fault_args=(--vm tpch --sharing 16 --warmup 200000 --measure 200000
        --watchdog 50000 --check basic)
    for plan in "wedge:core=3,at=100000" "drop:nth=500" \
        "memburst:at=100000,len=200000,extra=400000"; do
        rc=0
        ./build/tools/consim_run "${fault_args[@]}" --fault "$plan" \
            >/dev/null 2>"$work/fault.err" || rc=$?
        [[ "$rc" == 1 ]] && grep -q 'watchdog error' "$work/fault.err" || {
            echo "fault-injection smoke: $plan wanted exit 1 and a" \
                "watchdog trip, got exit $rc" >&2
            exit 1; }
    done
    echo "fault-injection smoke: all faults caught"
fi

if [[ -z "$perf_base" ]]; then
    echo "=== snapshot interchange: skipped (no --perf-base <ref> given) ==="
    echo "=== statistics identity: skipped (no --perf-base <ref> given) ==="
    echo "=== perf A/B: skipped (no --perf-base <ref> given) ==="
else
    echo "=== snapshot interchange: $perf_base and this tree ==="
    # The snapshot text is a contract between builds. The base's
    # consim_run (built from its git archive) and this tree's must
    # write byte-identical snapshots of a run tripped mid-run, and
    # each must resume the other's to the uninterrupted run's result
    # block. Three runs: a 64-core mesh run with packets queued and in
    # transit, a 16-core ideal-NoC run with messages in flight as
    # NetDeliver events, and a 256-core mesh run.
    xchg_dir="$work/interchange"
    mkdir -p "$xchg_dir/base"
    base_commit="$(git rev-parse --verify --quiet "$perf_base^{commit}")" || {
        echo "snapshot interchange: unknown base ref '$perf_base'" >&2
        exit 2; }
    git archive "$base_commit" | tar -x -C "$xchg_dir/base"
    cmake -B "$xchg_dir/base/build" -S "$xchg_dir/base" >/dev/null
    cmake --build "$xchg_dir/base/build" -j "$(nproc)" \
        --target consim_run >/dev/null
    declare -A xchg_bin=([base]="$xchg_dir/base/build/tools/consim_run"
        [change]=./build/tools/consim_run)
    # xchg NAME DEADLINE SNAPSHOT-CYCLE RUN-FLAGS...: both builds trip
    # the run at DEADLINE with the snapshot taken at SNAPSHOT-CYCLE.
    xchg() {
        local name="$1" deadline="$2" every="$3"
        shift 3
        local dir="$xchg_dir/$name"
        mkdir "$dir"
        ./build/tools/consim_run "$@" --json "$dir/full.json" >/dev/null
        awk '/"result": \{/,0' "$dir/full.json" >"$dir/full.result"
        local side pair writer reader
        for side in base change; do
            if "${xchg_bin[$side]}" "$@" --deadline "$deadline" \
                --ckpt-every "$every" --ckpt-out "$dir/$side.ckpt" \
                >/dev/null 2>&1; then
                echo "snapshot interchange: $name: $side deadline run" \
                    "unexpectedly succeeded" >&2
                exit 1
            fi
            [[ -s "$dir/$side.ckpt" ]] || {
                echo "snapshot interchange: $name: $side wrote no" \
                    "checkpoint" >&2
                exit 1; }
        done
        cmp "$dir/base.ckpt" "$dir/change.ckpt" || {
            echo "snapshot interchange: $name: the two builds'" \
                "snapshots differ" >&2
            exit 1; }
        for pair in "base change" "change base"; do
            read -r writer reader <<<"$pair"
            "${xchg_bin[$reader]}" --resume "$dir/$writer.ckpt" \
                --json "$dir/$writer-on-$reader.json" >/dev/null
            awk '/"result": \{/,0' "$dir/$writer-on-$reader.json" \
                >"$dir/$writer-on-$reader.result"
            diff -u "$dir/full.result" "$dir/$writer-on-$reader.result" || {
                echo "snapshot interchange: $name: the $writer snapshot" \
                    "resumed on the $reader build diverged" >&2
                exit 1; }
        done
    }
    xchg over64 90000 80000 --mix "Mix 5" --mesh 8x8 --sharing 8 \
        --vm-threads 24,24,24,24 --warmup 60000 --measure 120000 \
        --watchdog 200000
    # A queued packet's VC record opens a non-empty list.
    grep -q '"busy": true' "$xchg_dir/over64/change.ckpt" &&
        grep -q '"q": \[$' "$xchg_dir/over64/change.ckpt" || {
        echo "snapshot interchange: no mesh packet queued and in" \
            "transit at the over64 snapshot" >&2
        exit 1; }
    xchg ideal16 150000 140000 --mix "Mix 5" --ideal-noc \
        --warmup 100000 --measure 100000 --watchdog 200000
    grep -q '"kind": "ideal"' "$xchg_dir/ideal16/change.ckpt" || {
        echo "snapshot interchange: the ideal16 snapshot holds no" \
            "ideal-network record" >&2
        exit 1; }
    # The chip256 shape: 256 banks' and slices' transactions, each
    # unit's listed in block order from the machine-wide tables.
    xchg chip256 25000 20000 --mix "Mix 5" --mesh 16x16 --sharing 16 \
        --vm-threads 64,64,64,64 --warmup 10000 --measure 20000 \
        --watchdog 200000
    echo "snapshot interchange: identical snapshots, each resumes on" \
        "the other build to the uninterrupted result"

    echo "=== statistics identity: $perf_base and this tree ==="
    # A change meant only to make the simulator faster must leave every
    # simulated statistic as it was: the base's build and this tree's
    # must write byte-identical --dump-stats --json documents (the run
    # envelope and the whole statistics tree) for the four perfbench
    # points at their windows, for an over-committed 8x8 point whose
    # random dyn-sched swaps rebind cores every 20k cycles, and for
    # that 8x8 point with a QoS-protected VM on the mesh.
    ident_dir="$work/identity"
    mkdir "$ident_dir"
    ident() {
        local name="$1" side
        shift
        for side in base change; do
            "${xchg_bin[$side]}" "$@" --seed 1 --dump-stats \
                --json "$ident_dir/$name.$side.json" >/dev/null
        done
        cmp "$ident_dir/$name.base.json" "$ident_dir/$name.change.json" || {
            echo "statistics identity: $name: the two builds'" \
                "statistics differ" >&2
            exit 1; }
    }
    ident mix16 --mix "Mix 5" --mesh 4x4 --sharing 4 \
        --warmup 300000 --measure 600000
    ident ideal16 --mix "Mix 5" --mesh 4x4 --sharing 4 --ideal-noc \
        --warmup 300000 --measure 600000
    ident over64 --mix "Mix 5" --mesh 8x8 --sharing 8 \
        --vm-threads 24,24,24,24 --warmup 60000 --measure 120000
    ident chip256 --mix "Mix 5" --mesh 16x16 --sharing 16 \
        --vm-threads 64,64,64,64 --warmup 10000 --measure 20000
    ident over64-dyn --mix "Mix 5" --mesh 8x8 --sharing 8 \
        --vm-threads 24,24,24,24 --dyn-sched random,epoch=20000 \
        --warmup 60000 --measure 120000
    grep -q '"dyn_migrations": [1-9]' "$ident_dir/over64-dyn.change.json" || {
        echo "statistics identity: the dyn-sched point migrated no" \
            "thread" >&2
        exit 1; }
    # Mesh QoS: reserved-VC admission and the protected-only pass.
    ident over64-qos --mix "Mix 5" --mesh 8x8 --sharing 8 \
        --vm-threads 24,24,24,24 --qos static:vm=0,ways=2,vcs=1 \
        --warmup 60000 --measure 120000
    echo "statistics identity: every statistic identical on 6 points"

    echo "=== perf A/B: perfbench vs $perf_base on this host ==="
    # Alternating perfbench pairs of the base commit and this working
    # tree on every BENCHMARK.json workload; fails when a median
    # crosses its BENCHMARK.json bound in the worse direction.
    tools/perf_ab.sh --out "$work/perf_ab.json" "$perf_base"
fi

if [[ "$skip_asan" == 1 ]]; then
    echo "=== asan+ubsan: skipped ==="
else
    echo "=== asan+ubsan: full tier-1 test suite ==="
    cmake -B build-asan -S . -DCONSIM_SAN=address,undefined >/dev/null
    cmake --build build-asan -j "$(nproc)"
    (cd build-asan && ctest --output-on-failure -j "$(nproc)")
fi

if [[ "$skip_tsan" == 1 ]]; then
    echo "=== tsan: skipped ==="
    exit 0
fi

echo "=== tsan: parallel sweep + event queue ==="
# A simulation is single-threaded; the concurrency is the sweep engine
# running whole simulations on sweep threads. Every sweep test lives
# in test_hardening (SweepHardening, SweepRetry) or test_determinism.
cmake -B build-tsan -S . -DCONSIM_SAN=thread >/dev/null
cmake --build build-tsan -j "$(nproc)" \
    --target test_determinism test_event_queue test_hardening \
    consim_run
(cd build-tsan && ctest --output-on-failure -j "$(nproc)" \
    -R 'Determinism|CalendarQueue|SweepHardening|SweepRetry')

# Four seeds of the isolation point run as four simulations on sweep
# workers in one process, so any state the QoS paths (way-mask victim
# scans, VC reservation, MC token buckets, the epoch repartitioner)
# shared across simulations would race.
./build-tsan/tools/consim_run "${iso_args[@]}" --qos "$iso_qos" \
    --seeds 4 >/dev/null
echo "tsan: four concurrent isolation runs clean"

# Likewise the migration paths (epoch sampling, deferred rebinds, the
# feedback loop): four seeds of the migrating bursty run.
./build-tsan/tools/consim_run "${dyn_args[@]}" --dyn-sched "$dyn_spec" \
    --seeds 4 >/dev/null
echo "tsan: four concurrent migrating runs clean"

echo "=== ci.sh: all green ==="
