#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml: run every CI gate in one shot.
# Keep the two in sync when adding or changing steps (ci.yml carries the
# same cross-pointer).
# Usage: scripts/ci.sh [fast]
#   fast  skips the race and fuzz jobs (the slow half).
set -eu

cd "$(dirname "$0")/.."

echo "==> build"
go build ./...

echo "==> vet"
go vet ./...

echo "==> gofmt"
out="$(gofmt -l .)"
if [ -n "$out" ]; then
    echo "gofmt needed on:" >&2
    echo "$out" >&2
    exit 1
fi

echo "==> test"
go test ./...

echo "==> cache kernel, sweep replay, trace store, heap arena and profiler benchmark smoke"
go test -run=NONE -bench='TouchBlock|RunSharedReplay|StoreReplay|ArenaAlloc|HandleRecs|Sharded' -benchtime=1x ./internal/cache ./internal/sweep ./internal/sim ./internal/heapsim ./internal/profile

# CI additionally runs the build-test job on a go-version matrix
# (1.22.x, 1.23.x); locally you test whatever toolchain is installed.

echo "==> govulncheck"
if command -v govulncheck > /dev/null 2>&1; then
    govulncheck ./...
else
    echo "govulncheck not installed; skipping (CI runs it)"
fi

if [ "${1:-}" != "fast" ]; then
    echo "==> race (exec, profile, core, sim, sweep, store, trace, metrics, benchsuite, ledger, telemetry, server)"
    go test -race ./internal/exec/... ./internal/profile/... ./internal/core/... ./internal/sim/... ./internal/sweep/... ./internal/store/... ./internal/trace/... ./internal/metrics/... ./internal/benchsuite/... ./internal/ledger/... ./internal/telemetry/... ./internal/server/...

    echo "==> fuzz smoke (persist, trace, store)"
    go test -fuzz=FuzzReadProfile -fuzztime=15s ./internal/persist
    go test -fuzz=FuzzReadPlacement -fuzztime=15s ./internal/persist
    go test -run=NONE -fuzz=FuzzTraceReader -fuzztime=15s ./internal/trace
    go test -run=NONE -fuzz=FuzzFrameReader -fuzztime=15s ./internal/store
fi

echo "==> bench gate"
go run ./cmd/ccdpbench -baseline bench_baseline.json -out "BENCH_local.json" -ledger "LEDGER_local.jsonl"

echo "==> re-render ledger"
go run ./cmd/tables -from-ledger "LEDGER_local.jsonl"

echo "==> debug endpoint smoke"
go build -o /tmp/ccdpbench-ci ./cmd/ccdpbench
/tmp/ccdpbench-ci -scale 0.2 -seq-compare=false -q -debug-addr 127.0.0.1:18080 -out /tmp/bench_debug.json &
pid=$!
ok=""
for i in $(seq 1 50); do
    if curl -sf http://127.0.0.1:18080/debug/snapshot | grep -q '"total"'; then
        curl -sf -o /dev/null http://127.0.0.1:18080/debug/pprof/
        curl -sf http://127.0.0.1:18080/metrics | grep -q '^ccdp_go_goroutines' \
            || { echo "bench /metrics endpoint broken" >&2; exit 1; }
        ok=1
        break
    fi
    sleep 0.2
done
wait "$pid"
[ -n "$ok" ] || { echo "debug endpoint never answered" >&2; exit 1; }

echo "==> replay determinism (shared store, two-pass)"
# Pass 1 fills the shared store (CI restores it via actions/cache keyed on
# sim.TraceGenVersion, the store's frame format in internal/store/frame.go,
# and go.sum); pass 2 must find it fully warm — any re-record fails via
# -require-store-hits.
go run ./cmd/ccdpbench -trace-dir /tmp/ccdp-trace-store -replay-compare -q -out /tmp/bench_replay.json
go run ./cmd/ccdpbench -trace-dir /tmp/ccdp-trace-store -replay-compare -require-store-hits -q -out /tmp/bench_replay2.json

echo "==> sweep smoke (shared store, decode-once engine)"
# A small grid over the store the determinism steps just warmed:
# -require-store-hits proves the sweep shares trace keys with the suite,
# and -sweep-compare (on by default) holds every cell byte-identical to
# an independent per-cell replay — across the chunk/queue, popularity-
# cutoff, and heap-fit axes, so the multi-profile broadcast and layout
# grouping are exercised end to end. Two line sizes give layout groups
# a trace-stripping filter per line size, and identical CCDP layouts
# (4K/dm and 8K/2w share a period) merge, 130 carved layouts into 74
# replayed groups: both held byte-identical to the per-cell replays.
# -sweep-min-speedup holds the grouped engine to beating the ungrouped
# per-cell baseline (skipped with a notice under 4 CPUs). The ledger
# re-render proves the sweep event alone reproduces the matrix offline.
go run ./cmd/ccdpbench -sweep -sweep-workload compress \
    -sweep-sizes 4096,8192 -sweep-assocs 1,2 -sweep-blocks 32,64 -parallel 4 \
    -sweep-chunks 256,512 -sweep-queues 8192,16384 \
    -sweep-cutoffs 0,0.001 -sweep-heaps first,temporal \
    -sweep-min-speedup 1.1 \
    -trace-dir /tmp/ccdp-trace-store -require-store-hits \
    -ledger /tmp/sweep-ledger.jsonl -out /tmp/bench_sweep.json
go run ./cmd/tables -from-ledger /tmp/sweep-ledger.jsonl

echo "==> multi-process store stress"
# Four concurrent processes against one cold store: the claim protocol
# must let exactly one record each key (recorded= counts sum to the
# distinct trace file count) and every process must replay byte-identical
# to its live run. See the matching ci.yml step.
rm -rf /tmp/ccdp-trace-stress
pids=""
for i in 1 2 3 4; do
    /tmp/ccdpbench-ci -workloads compress,espresso -scale 0.05 -seq-compare=false \
        -trace-dir /tmp/ccdp-trace-stress -trace-maintain=false -replay-compare \
        -q -quiet -out "/tmp/stress-$i.json" > "/tmp/stress-$i.log" 2>&1 &
    pids="$pids $!"
done
fail=0
for p in $pids; do wait "$p" || fail=1; done
cat /tmp/stress-*.log
[ "$fail" = 0 ] || { echo "a stress process failed" >&2; exit 1; }
recorded=$(grep -ho 'recorded=[0-9]*' /tmp/stress-*.log | cut -d= -f2 | awk '{s+=$1} END {print s}')
files=$(ls /tmp/ccdp-trace-stress/*.ctrace | wc -l)
echo "recorded=$recorded across processes, distinct traces=$files"
[ "$recorded" = "$files" ] || { echo "claim protocol leaked a double-record" >&2; exit 1; }
/tmp/ccdpbench-ci -workloads compress,espresso -scale 0.05 -seq-compare=false \
    -trace-dir /tmp/ccdp-trace-stress -require-store-hits -replay-compare -q -quiet -out /tmp/stress-warm.json

echo "==> multi-core speedup gate"
go run ./cmd/ccdpbench -parallel 4 -min-speedup 1.5 -q -out /tmp/bench_speedup.json

echo "==> placement service smoke (ccdpd)"
# Boot the daemon against the warm shared store, drive one job through
# submit -> status poll -> result over plain HTTP, then prove the service
# is deterministic: a second identical submission (via the ?wait=true
# fast path) must return byte-identical result bytes. Ends with a clean
# SIGTERM drain; a non-zero daemon exit fails the step.
go build -o /tmp/ccdpd-ci ./cmd/ccdpd
/tmp/ccdpd-ci -addr 127.0.0.1:18344 -trace-dir /tmp/ccdp-trace-store -quiet &
dpid=$!
up=""
for i in $(seq 1 50); do
    if curl -sf http://127.0.0.1:18344/healthz | grep -q '"status": *"ok"'; then up=1; break; fi
    sleep 0.2
done
[ -n "$up" ] || { echo "ccdpd never became healthy" >&2; exit 1; }
curl -sf http://127.0.0.1:18344/v1/workloads | grep -q '"espresso"' || { echo "workload listing broken" >&2; exit 1; }
jobreq='{"kind":"eval","workload":"espresso","scale":0.05}'
id=$(curl -sf -d "$jobreq" http://127.0.0.1:18344/v1/jobs | grep -o '"id": *"[^"]*"' | cut -d'"' -f4)
[ -n "$id" ] || { echo "submit returned no job id" >&2; exit 1; }
state=""
for i in $(seq 1 150); do
    state=$(curl -sf "http://127.0.0.1:18344/v1/jobs/$id" | grep -o '"state": *"[^"]*"' | cut -d'"' -f4)
    [ "$state" = "done" ] && break
    case "$state" in failed|cancelled) echo "job $id ended $state" >&2; exit 1;; esac
    sleep 0.2
done
[ "$state" = "done" ] || { echo "job $id stuck in '$state'" >&2; exit 1; }
curl -sf "http://127.0.0.1:18344/v1/jobs/$id/result" > /tmp/ccdpd-a.json
grep -q '"program": "espresso"' /tmp/ccdpd-a.json || { echo "result is not a report" >&2; exit 1; }
id2=$(curl -sf -d "$jobreq" "http://127.0.0.1:18344/v1/jobs?wait=true" | grep -o '"id": *"[^"]*"' | cut -d'"' -f4)
curl -sf "http://127.0.0.1:18344/v1/jobs/$id2/result" > /tmp/ccdpd-b.json
cmp /tmp/ccdpd-a.json /tmp/ccdpd-b.json || { echo "service results are not deterministic" >&2; exit 1; }
# Telemetry smoke: the SSE stream must replay to its terminal event and
# EOF, the span tree must be served, and /metrics must expose the job
# counters in parseable text exposition format.
curl -sN -m 60 "http://127.0.0.1:18344/v1/jobs/$id/events" > /tmp/ccdpd-events.txt
grep -q '^event: done' /tmp/ccdpd-events.txt || { echo "SSE stream had no terminal done event" >&2; exit 1; }
grep -q '^event: span' /tmp/ccdpd-events.txt || { echo "SSE stream had no span events" >&2; exit 1; }
curl -sf "http://127.0.0.1:18344/v1/jobs/$id/trace" | grep -q '"stage": *"job"' || { echo "trace endpoint missing job root span" >&2; exit 1; }
curl -sf http://127.0.0.1:18344/metrics > /tmp/ccdpd-metrics.txt
grep -q '^ccdp_server_jobs_done_total [0-9]' /tmp/ccdpd-metrics.txt || { echo "/metrics missing jobs_done counter" >&2; exit 1; }
# The repeated job must have reused the first one's profile.
grep -Eq '^ccdp_profile_memo_hits_total [1-9]' /tmp/ccdpd-metrics.txt || { echo "/metrics shows no profile memo hit after a repeated job" >&2; exit 1; }
awk '!/^#/ && NF != 2 { print "unparseable exposition line: " $0; bad = 1 } END { exit bad }' /tmp/ccdpd-metrics.txt || { echo "/metrics failed the parse check" >&2; exit 1; }
kill -TERM "$dpid"
wait "$dpid" || { echo "ccdpd exited non-zero on SIGTERM" >&2; exit 1; }

echo "==> ccdpd load harness"
# The built-in open-loop load test: submits eval jobs at a fixed QPS
# against an ephemeral instance and fails on any errored round trip.
/tmp/ccdpd-ci -selftest -selftest-qps 6 -selftest-duration 3s -quiet -trace-dir /tmp/ccdp-trace-store

echo "CI OK"
