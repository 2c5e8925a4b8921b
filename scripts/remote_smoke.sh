#!/usr/bin/env bash
# remote_smoke.sh — end-to-end check of the remote execution backend at
# the CLI layer: build the binaries, start a coordinator and workers, run
# a source-axis sweep through -backend remote@…, SIGKILL a worker
# mid-sweep, and require the per-job results to diff clean against the
# same sweep run locally (experiments diff exit-code contract: 0 within
# tolerance, and per-job JSON is byte-identical by construction).
#
# The kill is forced to land mid-row: the sweep's jobs form two rows
# (four engines over each slice), and a one-slot worker leases, runs and
# completes a row as one unit. Only the victim worker exists when the
# remote sweep starts, the coordinator streams each accepted result to
# disk (-results), and the victim is SIGKILLed as soon as the first
# result file appears — by then it has posted its first row and leased
# the second, whose lease must be re-queued whole after the lease TTL and
# finished by a survivor started after the kill.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
cleanup() {
    jobs -p | xargs -r kill -9 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

cd "$root"
bin="$work/bin"
mkdir -p "$bin"
go build -o "$bin" ./cmd/...

# A sharded store: the source axis ships slice windows of it, the
# workers re-open it by path (same machine, same path).
store="$work/oltp.store"
"$bin/tracegen" -workload "OLTP DB2" -n 3000000 -shard-records 500000 -o "$store"

addr=127.0.0.1:18077
"$bin/pifcoord" -listen "$addr" -lease-ttl 2s -results "$work/coordstore" &

# Wait for the coordinator to accept connections.
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/18077") 2>/dev/null; then
        exec 3>&- 3<&-
        break
    fi
    sleep 0.2
done

sweep_args=(sweep -quick -name smoke
    -axis "workload=OLTP DB2" -axis engine=pif,tifs,nextline,none
    -axis "source=slice@0:1M@$store,slice@1M:1M@$store")

# Local reference run.
"$bin/experiments" "${sweep_args[@]}" -out "$work/local"

# The victim is the only worker when the sweep starts, one row at a time
# so it cannot drain the queue before the kill.
"$bin/pifworker" -coord "$addr" -name victim -parallel 1 &
victim=$!

"$bin/experiments" "${sweep_args[@]}" -backend "remote@$addr" -out "$work/remote" &
sweep=$!

# First streamed result file => the victim is mid-run. Kill it.
for _ in $(seq 1 400); do
    if ls "$work"/coordstore/*/jobs/*.json >/dev/null 2>&1; then
        break
    fi
    sleep 0.05
done
kill -9 "$victim" 2>/dev/null || true
"$bin/pifworker" -coord "$addr" -name survivor -parallel 2 &

wait "$sweep"

# The coordinator's streaming store must hold exactly one file per cell:
# completions are idempotent, so the re-leased tasks land once each.
n=$(ls "$work"/coordstore/*/jobs/*.json | wc -l)
if [ "$n" -ne 8 ]; then
    echo "remote smoke: coordinator persisted $n job files, want 8" >&2
    exit 1
fi

"$bin/experiments" diff "$work/local" "$work/remote"
echo "remote smoke: local and remote runs identical (worker SIGKILLed mid-sweep)"

# Tuned-engine sweeps: parameterized engine specs are wire data (wire
# v2), so history- and budget-axis grids run remotely and must diff
# clean against the same grids run locally. The two knobs are swept in
# separate grids on purpose — each engine's schema rejects a cell
# setting both history and budget_kb (ambiguous sizing), which is the
# validation the coordinator now applies at encode time. The surviving
# worker from the kill test executes everything.
tuned_args=(sweep -quick -name tuned-history
    -axis "workload=OLTP DB2" -axis engine=pif,tifs
    -axis history=1K,4K)
budget_args=(sweep -quick -name tuned-budget
    -axis "workload=OLTP DB2" -axis engine=pif,tifs,none
    -axis budget=8,32)

"$bin/experiments" "${tuned_args[@]}" -out "$work/tuned-local"
"$bin/experiments" "${tuned_args[@]}" -backend "remote@$addr" -out "$work/tuned-remote"
"$bin/experiments" diff "$work/tuned-local" "$work/tuned-remote"

"$bin/experiments" "${budget_args[@]}" -out "$work/budget-local"
"$bin/experiments" "${budget_args[@]}" -backend "remote@$addr" -out "$work/budget-remote"
"$bin/experiments" diff "$work/budget-local" "$work/budget-remote"

echo "remote smoke: tuned engine sweeps (history, budget axes) identical local vs remote"

# Sharded sweep cells through the remote backend: -shards splits every
# cell into window-shard jobs (wire v3 carries the measure offset), the
# worker fleet runs the shards, and the stitched per-cell results must
# diff clean against the unsharded sweep run locally (DESIGN.md §13).
shard_args=(sweep -quick -warmup 1000000 -measure 1000000 -name sharded
    -axis "workload=OLTP DB2" -axis engine=pif,tifs
    -axis "source=store@$store")

"$bin/experiments" "${shard_args[@]}" -out "$work/shard-local"
"$bin/experiments" "${shard_args[@]}" -shards 3 -backend "remote@$addr" -out "$work/shard-remote"
"$bin/experiments" diff "$work/shard-local" "$work/shard-remote"

echo "remote smoke: sharded sweep cells (-shards 3) identical to unsharded local run"
