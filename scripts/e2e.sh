#!/usr/bin/env bash
# End-to-end smoke of the closed loop: lsmserve serves over real TCP,
# lsmload replays the workload of the committed model spec
# scripts/e2e_model.json (~100 clients, one trace hour, in-show events
# that draw a crowd) at compressed virtual time, and the served WMS log
# is parsed back and compared against the offered workload — exact
# session and transfer counts or the script fails. The served log is then detoured
# through the framed binary format: text → binary → text must be
# byte-identical, and -check must accept the binary file directly and
# print the same realization digest as for the text log.
set -euo pipefail

BIN=${BIN:-bin}
PORT=${PORT:-18555}
DIR=$(mktemp -d)
trap 'kill "$SRV" 2>/dev/null || true; rm -rf "$DIR"' EXIT

"$BIN"/lsmserve -addr "127.0.0.1:$PORT" -log "$DIR/transfers.log" \
    -max-conns 600 -write-timeout 15s > "$DIR/server.out" 2>&1 &
SRV=$!

# Wait for the listener.
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
        exec 3>&- 3<&-
        break
    fi
    sleep 0.1
done

# ~100 clients (paper population / 6919), 1 trace hour in ~6 wall
# seconds; at seed 7 the spec's events more than double the sessions
# opening in the third quarter hour over the second.
WORKLOAD=(-model "$(dirname "$0")/e2e_model.json" -seed 7)
"$BIN"/lsmload -addr "127.0.0.1:$PORT" "${WORKLOAD[@]}" \
    -compression 600 -conns 200 -meta "$DIR/meta.json"

# Flush the transfer log via graceful shutdown before validating.
kill -INT "$SRV"
wait "$SRV" || true

"$BIN"/lsmload -check "$DIR/meta.json" -logs "$DIR/transfers.log" | tee "$DIR/check.out"

# Binary fast-path detour over the real served log: the conversion must
# round-trip byte for byte, and -check must parse the binary file
# directly (format auto-detected by magic bytes, no flag) to the same
# realization digest.
"$BIN"/lsmlog convert -to binary "$DIR/transfers.log" "$DIR/transfers.bin"
"$BIN"/lsmlog convert -to text "$DIR/transfers.bin" "$DIR/roundtrip.log"
cmp "$DIR/transfers.log" "$DIR/roundtrip.log"
"$BIN"/lsmload -check "$DIR/meta.json" -logs "$DIR/transfers.bin" | tee "$DIR/check-bin.out"
TEXT_MD5=$(grep -o 'realization md5=.*' "$DIR/check.out")
BIN_MD5=$(grep -o 'realization md5=.*' "$DIR/check-bin.out")
if [ -z "$TEXT_MD5" ] || [ "$TEXT_MD5" != "$BIN_MD5" ]; then
    echo "binary log realization ($BIN_MD5) != text log realization ($TEXT_MD5)" >&2
    exit 1
fi
echo "binary round trip: PASS ($TEXT_MD5)"
echo "e2e smoke: PASS"
