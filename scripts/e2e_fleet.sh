#!/usr/bin/env bash
# Fleet end-to-end: three lsmserve nodes behind an lsmfleet redirector
# serve a replayed workload — the committed model spec
# scripts/e2e_model.json, whose in-show events draw a crowd — over real
# TCP.
#
# Phase A (hash policy): the replay must complete with zero lost
# transfers, `lsmload -check` over the three node logs must MATCH the
# offered workload exactly, and the realization digest it prints must
# be md5-identical to the one it prints for a single-node serve of the
# same workload (phase A', which must MATCH too).
#
# Phase B (failover): one node is SIGKILLed mid-replay; transfers must
# re-route through the front-end (visible in the loadgen metrics), and
# the node logs must still MATCH the offered workload minus exactly
# the transfers the replay recorded as lost.
#
# Readiness and fleet-side assertions go through the /metrics ops
# surface (lsmfleet/lsmserve -metrics), not by grepping process logs:
# node registration, redirect counts, per-node serve counters, busy
# refusals, and the post-kill live-node count are all read with curl.
#
# Artifacts (server/client output, per-node logs, check output, metas)
# land in $OUT; on success a temp OUT is removed, on failure it is kept
# (CI sets OUT inside the workspace and uploads it).
set -euo pipefail

BIN=${BIN:-bin}
PORT=${PORT:-18600} # redirector; nodes take PORT+1..PORT+3
MPORT=$((PORT + 20)) # /metrics: fleet at MPORT, node i at MPORT+i
FLEET_METRICS="http://127.0.0.1:$MPORT/metrics"
CLEAN_OUT=0
if [ -z "${OUT:-}" ]; then
    OUT=$(mktemp -d)
    CLEAN_OUT=1
else
    mkdir -p "$OUT"
fi

STATUS=fail
PIDS=()
cleanup() {
    for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    if [ "$STATUS" = ok ]; then
        # An if, not `[ … ] && rm`: as the trap's last command a false
        # test would become the script's exit status on a pass.
        if [ "$CLEAN_OUT" = 1 ]; then
            rm -rf "$OUT"
        fi
    else
        echo "e2e fleet: FAIL — artifacts kept in $OUT" >&2
    fi
}
trap cleanup EXIT

# wait_grep FILE PATTERN — poll up to ~10s for PATTERN to appear.
wait_grep() {
    for _ in $(seq 1 100); do
        if grep -q "$2" "$1" 2>/dev/null; then return 0; fi
        sleep 0.1
    done
    echo "timed out waiting for '$2' in $1" >&2
    return 1
}

# metric URL NAME — print NAME's value from a /metrics endpoint.
metric() { curl -sf "$1" | sed -n "s/^$2 //p"; }

# wait_metric URL NAME VALUE — poll up to ~10s for NAME to read VALUE.
wait_metric() {
    local v=
    for _ in $(seq 1 100); do
        v=$(metric "$1" "$2" 2>/dev/null || true)
        if [ "$v" = "$3" ]; then return 0; fi
        sleep 0.1
    done
    echo "timed out waiting for $2=$3 at $1 (last: ${v:-unreachable})" >&2
    return 1
}

# The same committed model spec and seed the single-node e2e replays
# (~100 clients, 1 trace hour, in-show events that draw a crowd), so
# fleet and single-node realizations are comparable.
WORKLOAD=(-model "$(dirname "$0")/e2e_model.json" -seed 7)
REPLAY=(-compression 600 -conns 200)

start_fleet() { # $1 = phase dir
    local dir="$OUT/$1"
    mkdir -p "$dir"
    "$BIN"/lsmfleet -addr "127.0.0.1:$PORT" -policy hash \
        -metrics "127.0.0.1:$MPORT" > "$dir/fleet.out" 2>&1 &
    PIDS+=($!)
    FLEET_PID=$!
    # The metrics endpoint answering means the redirector is up.
    wait_metric "$FLEET_METRICS" nodes_up 0
    NODE_PIDS=()
    for i in 1 2 3; do
        "$BIN"/lsmserve -addr "127.0.0.1:$((PORT + i))" -log "$dir/node$i.log" \
            -fleet "127.0.0.1:$PORT" -beat 200ms \
            -metrics "127.0.0.1:$((MPORT + i))" \
            -max-conns 600 -write-timeout 15s > "$dir/node$i.out" 2>&1 &
        PIDS+=($!)
        NODE_PIDS+=($!)
    done
    wait_metric "$FLEET_METRICS" nodes_up 3
}

stop_fleet() { # graceful: flush node logs, then stop the redirector
    for p in "${NODE_PIDS[@]}"; do kill -INT "$p" 2>/dev/null || true; done
    for p in "${NODE_PIDS[@]}"; do wait "$p" 2>/dev/null || true; done
    kill -INT "$FLEET_PID" 2>/dev/null || true
    wait "$FLEET_PID" 2>/dev/null || true
}

echo "=== phase A: 3-node hash fleet, exact node-log match ==="
start_fleet a
"$BIN"/lsmload -addr "127.0.0.1:$PORT" -frontend \
    "${WORKLOAD[@]}" "${REPLAY[@]}" -meta "$OUT/a/meta.json" | tee "$OUT/a/replay.out"

# Fleet-side view of the replay, read from /metrics while the
# processes are still up: routing happened, nothing was refused for
# lack of nodes, no heartbeat expired, and the hash policy actually
# spread the workload across the per-node serve counters.
curl -sf "$FLEET_METRICS" | tee "$OUT/a/fleet.metrics"
REDIRECTS=$(metric "$FLEET_METRICS" redirects)
if [ "$REDIRECTS" -eq 0 ]; then
    echo "front-end issued no redirects" >&2
    exit 1
fi
if [ "$(metric "$FLEET_METRICS" no_node_errors)" -ne 0 ]; then
    echo "front-end refused lookups for lack of nodes" >&2
    exit 1
fi
if [ "$(metric "$FLEET_METRICS" heartbeat_expiries)" -ne 0 ]; then
    echo "heartbeat expiries with all nodes healthy" >&2
    exit 1
fi
SERVING=0
for i in 1 2 3; do
    url="http://127.0.0.1:$((MPORT + i))/metrics"
    curl -sf "$url" > "$OUT/a/node$i.metrics"
    n=$(metric "$url" transfers_served)
    refused=$(metric "$url" conns_refused)
    echo "node$i served $n transfers ($refused refused)"
    if [ "$refused" -ne 0 ]; then
        echo "node$i hit its connection cap during the replay" >&2
        exit 1
    fi
    if [ "$n" -gt 0 ]; then SERVING=$((SERVING + 1)); fi
done
if [ "$SERVING" -lt 2 ]; then
    echo "hash policy routed everything to $SERVING node(s)" >&2
    exit 1
fi
echo "front-end issued $REDIRECTS redirects across $SERVING serving nodes"
stop_fleet

"$BIN"/lsmload -check "$OUT/a/meta.json" \
    -logs "$OUT/a/node1.log" -logs "$OUT/a/node2.log" -logs "$OUT/a/node3.log" | tee "$OUT/a/check.out"

echo "=== phase A': single-node serve of the same workload ==="
mkdir -p "$OUT/single"
"$BIN"/lsmserve -addr "127.0.0.1:$((PORT + 4))" -log "$OUT/single/single.log" \
    -max-conns 600 -write-timeout 15s > "$OUT/single/server.out" 2>&1 &
PIDS+=($!)
SINGLE_PID=$!
wait_grep "$OUT/single/server.out" "live streaming server on"
"$BIN"/lsmload -addr "127.0.0.1:$((PORT + 4))" \
    "${WORKLOAD[@]}" "${REPLAY[@]}" -meta "$OUT/single/meta.json" > "$OUT/single/replay.out" 2>&1
kill -INT "$SINGLE_PID" && wait "$SINGLE_PID" || true
"$BIN"/lsmload -check "$OUT/single/meta.json" -logs "$OUT/single/single.log" | tee "$OUT/single/check.out"

FLEET_MD5=$(grep -o 'realization md5=.*' "$OUT/a/check.out")
SINGLE_MD5=$(grep -o 'realization md5=.*' "$OUT/single/check.out")
if [ "$FLEET_MD5" != "$SINGLE_MD5" ]; then
    echo "fleet realization ($FLEET_MD5) != single-node realization ($SINGLE_MD5)" >&2
    exit 1
fi
echo "fleet and single-node realizations agree: $FLEET_MD5"

echo "=== phase B: kill-one-node failover mid-replay ==="
start_fleet b
(
    sleep 2.5
    kill -KILL "${NODE_PIDS[1]}" 2>/dev/null || true
    echo "killed node2 (pid ${NODE_PIDS[1]})"
) &
KILLER=$!
"$BIN"/lsmload -addr "127.0.0.1:$PORT" -frontend \
    "${WORKLOAD[@]}" "${REPLAY[@]}" -max-failures 200 \
    -meta "$OUT/b/meta.json" | tee "$OUT/b/replay.out"
wait "$KILLER" || true

# The kill must be visible on the ops surface: the dead node's
# registration connection dropped, so the fleet reports 2 live nodes
# (immediate deregistration — the heartbeat TTL is only the
# wedged-process bound, so expiries stay 0 here).
curl -sf "$FLEET_METRICS" | tee "$OUT/b/fleet.metrics"
NODES_UP=$(metric "$FLEET_METRICS" nodes_up)
if [ "$NODES_UP" -ne 2 ]; then
    echo "fleet reports $NODES_UP live node(s) after the kill, want 2" >&2
    exit 1
fi
stop_fleet

# The reroute must be visible in the loadgen metrics.
REROUTED=$(sed -n 's/.* \([0-9][0-9]*\) rerouted after node failure.*/\1/p' "$OUT/b/replay.out")
if [ -z "$REROUTED" ] || [ "$REROUTED" -eq 0 ]; then
    echo "no failover recorded in loadgen metrics after killing a node" >&2
    exit 1
fi
echo "loadgen rerouted $REROUTED transfers after the kill"

# The node logs (including the killed node's flushed prefix) must match
# the offered workload minus exactly the recorded lost transfers.
"$BIN"/lsmload -check "$OUT/b/meta.json" \
    -logs "$OUT/b/node1.log" -logs "$OUT/b/node2.log" -logs "$OUT/b/node3.log" | tee "$OUT/b/check.out"

STATUS=ok
echo "e2e fleet: PASS"
