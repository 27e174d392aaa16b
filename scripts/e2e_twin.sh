#!/usr/bin/env bash
# End-to-end smoke of the digital-twin calibration loop: lsmgen writes
# a small synthetic workload's daily logs, lsmcal characterizes them,
# fits the Table 2 parameter set, regenerates a twin and validates it —
# under -strict, any rejecting KS test fails the script. That run is
# made twice, on one core and on the default, and must print the same
# bytes and fit the same spec: the measurement half's "any core count,
# same bytes" contract. The fitted
# spec then feeds generation directly: lsmgen -model must accept it and
# re-save it byte-identically (the load → save fixed point), and the
# regenerated logs must themselves characterize and fit cleanly.
set -euo pipefail

BIN=${BIN:-bin}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

echo "=== generate source workload ==="
"$BIN"/lsmgen -out "$DIR/logs" -scale 400 -days 3 -seed 7

echo "=== fit + twin-validate (strict), GOMAXPROCS=1 ==="
GOMAXPROCS=1 "$BIN"/lsmcal -logs "$DIR/logs" -days 3 -seed 7 -o "$DIR/model.json" -twin -strict > "$DIR/cal.1cpu.out"
mv "$DIR/model.json" "$DIR/model.1cpu.json"

echo "=== fit + twin-validate (strict), default cores ==="
"$BIN"/lsmcal -logs "$DIR/logs" -days 3 -seed 7 -o "$DIR/model.json" -twin -strict | tee "$DIR/cal.out"
cmp "$DIR/model.1cpu.json" "$DIR/model.json"
cmp "$DIR/cal.1cpu.out" "$DIR/cal.out"
echo "core-count determinism (spec + stdout): PASS"

echo "=== fitted spec feeds generation; load -> save is byte-identical ==="
"$BIN"/lsmgen -out "$DIR/logs2" -model "$DIR/model.json" -seed 9 \
    -save-model "$DIR/model2.json"
cmp "$DIR/model.json" "$DIR/model2.json"
echo "model spec round trip: PASS"

echo "=== regenerated workload re-characterizes cleanly ==="
"$BIN"/lsmcal -logs "$DIR/logs2" -days 3 -seed 9 -o "$DIR/model3.json" > "$DIR/refit.out"
grep -q "model spec written" "$DIR/refit.out"

echo "e2e twin loop: PASS"
