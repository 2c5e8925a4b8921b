#!/usr/bin/env bash
# expsvc_smoke.sh — end-to-end check of the experiment service at the CLI
# layer: build the binaries, start a token-protected coordinator + worker
# + pifexpd stack, submit a two-cell sweep with `experiments submit`,
# follow it to completion, and require the service's stored run to diff
# exit-0 against the same spec run locally with `experiments sweep -out`
# (the acceptance contract: one sweep definition, two execution paths,
# byte-identical artifacts and per-job results) and against a second
# service run of the same spec.
#
# The service is then restarted on the same database to check the run
# survives (still listed done, still diffable), and the bearer token is
# checked to actually gate the API.
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

token=smoke-secret
coord=127.0.0.1:18177
svc=127.0.0.1:18178

wait_port() {
    local hostport=$1
    for _ in $(seq 1 50); do
        if (exec 3<>"/dev/tcp/${hostport%:*}/${hostport#*:}") 2>/dev/null; then
            exec 3>&- 3<&-
            return 0
        fi
        sleep 0.2
    done
    echo "expsvc smoke: $hostport never came up" >&2
    return 1
}

"$bin/pifcoord" -listen "$coord" -auth-token "$token" &
wait_port "$coord"
"$bin/pifworker" -coord "$coord" -parallel 2 -auth-token "$token" &

"$bin/pifexpd" -listen "$svc" -db "$work/svcdb" \
    -backend "remote@$coord" -auth-token "$token" &
expd=$!
wait_port "$svc"

# The token gates every API call: a tokenless client dials (health check
# is open for probes) but its first real request must be refused.
if "$bin/experiments" status -svc "$svc" 2>/dev/null; then
    echo "expsvc smoke: tokenless status succeeded against a protected service" >&2
    exit 1
fi

spec_args=(-quick -warmup 1000000 -measure 500000 -name smoke
    -axis "workload=OLTP DB2" -axis engine=pif,none)

# Submit through the service (runs on the coordinator's worker) and
# follow it to completion; the run ID is the only stdout line.
run_id=$("$bin/experiments" submit -svc "$svc" -auth-token "$token" \
    "${spec_args[@]}" -wait)
echo "expsvc smoke: run $run_id done"
"$bin/experiments" status -svc "$svc" -auth-token "$token"

# The same spec run locally must be byte-identical: `diff -svc` fetches
# the service's stored run and diffs it against the local -out
# directory, and must exit 0.
"$bin/experiments" sweep "${spec_args[@]}" -out "$work/local"
"$bin/experiments" diff -svc "$svc" -auth-token "$token" "$run_id" "$work/local"
echo "expsvc smoke: service run identical to local sweep"

# -json carries the same verdict machine-readably.
"$bin/experiments" diff -json -svc "$svc" -auth-token "$token" \
    "$run_id" "$work/local" | grep -q '"code": 0'

# A second service run of the same spec diffs exit-0 against the first:
# both sides arrive over HTTP.
run_b=$("$bin/experiments" submit -svc "$svc" -auth-token "$token" \
    "${spec_args[@]}" -wait)
"$bin/experiments" diff -svc "$svc" -auth-token "$token" "$run_id" "$run_b"
echo "expsvc smoke: two service runs of one spec identical"

# Restart the service on the same database: the run database is
# persistent, so the completed run must still be listed done and diff
# clean — no requeue, no loss.
kill "$expd"
wait "$expd" 2>/dev/null || true
"$bin/pifexpd" -listen "$svc" -db "$work/svcdb" \
    -backend "remote@$coord" -auth-token "$token" &
wait_port "$svc"

"$bin/experiments" status -svc "$svc" -auth-token "$token" -json "$run_id" \
    | grep -q '"state": "done"'
"$bin/experiments" diff -svc "$svc" -auth-token "$token" "$run_id" "$work/local"
echo "expsvc smoke: run database survived a service restart"
