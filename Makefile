# Streaming-pipeline build/test/bench entry points.

GO ?= go
BIN ?= bin

.PHONY: verify build lint test race examples bench bench-gate bench-history fuzz e2e e2e-twin profile

# Extra flags for the e2e binaries (CI passes E2E_BUILDFLAGS=-race to
# run the socket smokes under the race detector).
E2E_BUILDFLAGS ?=

# verify is the default local gate: compile, contract-lint, test.
verify: build lint test

build:
	$(GO) build ./...

# lint runs lsmvet, the repo's contract checker (DESIGN.md "Enforced
# invariants"): determinism, hotpath allocations, entry retention,
# seed-lane uniqueness, and internal functions no program reaches, with
# //lsm: directives for audited exceptions. The two cross-system vets
# compile the live client's non-Linux stop timer, which no Linux build
# touches.
lint:
	$(GO) run ./cmd/lsmvet ./...
	GOOS=darwin $(GO) vet ./internal/liveserver
	GOOS=windows $(GO) vet ./internal/liveserver

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# examples runs every program under examples/ to completion: they are
# compiled by `build` but exercised by no test. Each gets 120 s; an
# example that outgrows the budget gets a smaller scale, not a skip.
# An example with a stdout.golden must print it byte for byte: every
# one but livereplay, whose output follows the wall clock. Regenerate a
# golden only on purpose: go run ./examples/NAME > examples/NAME/stdout.golden
examples:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for d in examples/*/; do \
	    echo "go run ./$$d"; \
	    timeout 120 $(GO) run ./$$d > "$$out" || { echo "FAIL: $$d" >&2; exit 1; }; \
	    if [ -f "$${d}stdout.golden" ]; then \
	        diff -u "$${d}stdout.golden" "$$out" || { echo "FAIL: $$d differs from $${d}stdout.golden" >&2; exit 1; }; \
	    fi; \
	done

# BENCH_MATRIX selects the benchmarks that run the -cpu 1,2,4,8
# matrix: the generate → serve pipeline (its speedup_vs_sequential is
# against its own -cpu 1 row), sharded generation (plus its sequential
# baseline, which speedup_vs_sequential divides by at the same
# GOMAXPROCS).
BENCH_MATRIX := BenchmarkStreamingServe|BenchmarkStreamingGenerate(Sequential|Shards)

# BENCH_CODEC selects the single-threaded streaming benchmarks the
# matrix does not cover: the wmslog entry and whole-log codecs, the
# materializing drain of the generator, and the generator's two
# per-client kernels (the Zipf interest inversion at the gen_logs table
# size, and the population build). Like BENCH_CHAR they run at
# -cpu 1, so every row's (name, gomaxprocs) key is the same on any
# runner and the gate compares it instead of reporting NEW/GONE.
BENCH_CODEC := BenchmarkStreaming((Encode|Parse)Entry|Parse(Text|Binary)Log|EncodeBinaryLog|GenerateMaterialized)$$|BenchmarkZipfRankOfU$$|BenchmarkPopulation$$

# BENCH_CHAR selects the measurement-half benchmarks: the log ingest
# (files on disk → sanitized trace) and lsmcal's observe half (the
# ingest streamed into the calibration core, core.ObserveLogs —
# matched by Observe), sessionization, the whole
# core.Characterize and its calibration core alone (core.Observe),
# the calibration loop's regenerate and validate
# halves (calibrate.Twin, calibrate.Validate), the concurrency report
# alone at a sparse and at the paper-scale shape (B/op included: it may
# not grow with the horizon) and with its Figure 8 autocorrelation, the Figure 9 timeout sweep, the
# Table 1 / Figure 2 counting walk, and the sample sort kernel against
# the stdlib sort it replaced. They run at -cpu 1 and keep one row each
# whatever the runner's core count.
BENCH_CHAR := BenchmarkPipeline(LoadLogs|Sessionize|FullCharacterization|Observe|Twin|Validate|Diversity|Concurrency)|BenchmarkFigure(8Autocorrelation|9SessionsVsTimeout)|BenchmarkSortSample

# BENCH_INGEST is the measurement-half benchmarks that scale with
# GOMAXPROCS alone — the log ingest (a parse worker per core), alone
# and streamed into the observer, and core.Characterize (a task per
# layer): their -cpu 1 rows come from
# BENCH_CHAR, so the matrix pass adds only -cpu 2,4,8 and the record
# still holds one row per (name, gomaxprocs); benchjson annotates those
# rows with speedup_vs_sequential against the -cpu 1 row.
BENCH_INGEST := BenchmarkPipeline(LoadLogs|ObserveLogs|FullCharacterization)$$

# bench runs the codec benchmarks (BENCH_CODEC), the streaming-pipeline
# benchmarks (BENCH_MATRIX: sequential vs sharded generation, streamed
# serving, the end-to-end run) and the measurement-half
# benchmarks (BENCH_CHAR) and renders BENCH_streaming.json — ns/op and
# bytes/op per benchmark — seeding the perf trajectory. The matrix runs
# at -cpu 1,2,4,8 (BENCH_INGEST, whose -cpu 1 row is BENCH_CHAR's, at
# -cpu 2,4,8) so each parallel path's scaling
# (metrics.speedup_vs_sequential, computed per GOMAXPROCS against its
# sequential baseline) is part of the record; the selections are
# disjoint, so the record holds one row per (name, gomaxprocs).
# The bench output is written to a file first so a failing `go test`
# fails the target instead of being masked by a pipe; every failing
# step deletes the intermediate so a rerun never ingests stale output,
# and the committed baseline is replaced atomically (write to .tmp,
# then mv) so a failed render cannot truncate it.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_CODEC)' -benchmem -count 1 -cpu 1 . > bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_MATRIX)' -benchmem -count 1 -cpu 1,2,4,8 . >> bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_CHAR)' -benchmem -count 1 -cpu 1 . >> bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_INGEST)' -benchmem -count 1 -cpu 2,4,8 . >> bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	cat bench_streaming.txt
	$(GO) run ./cmd/benchjson < bench_streaming.txt > BENCH_streaming.json.tmp || { rm -f bench_streaming.txt BENCH_streaming.json.tmp; exit 1; }
	mv BENCH_streaming.json.tmp BENCH_streaming.json
	@rm -f bench_streaming.txt
	@echo "wrote BENCH_streaming.json"

# bench-gate is the CI perf gate: run the benchmarks fresh (including
# the -cpu matrix), write the result to bench_fresh.json (uploaded as
# an artifact; lowercase so it can never be mistaken for a committed
# BENCH_*.json baseline), and fail if any benchmark variant's ns/op
# regressed more than 25% — or its speedup_vs_sequential dropped more
# than 15% — against the committed BENCH_streaming.json baseline. The
# gate first refuses to run unless BENCH_streaming.json is the one and
# only BENCH_*.json in the repo root, so it can never silently compare
# against a stray duplicate baseline. On a runner with fewer than 4
# cores the multi-core variants and the speedup metric are skipped
# with a visible warning instead of gated. Three runs per benchmark;
# the compare gates on each variant's best run, damping shared-runner
# noise. The comparison table (pass or fail) is kept in
# bench_compare.txt so CI can publish it to the job's step summary.
bench-gate:
	@baselines="$$(ls BENCH_*.json 2>/dev/null)"; \
	    if [ "$$baselines" != "BENCH_streaming.json" ]; then \
	        echo "bench-gate: expected exactly one baseline (BENCH_streaming.json), found:" >&2; \
	        echo "$${baselines:-  (none)}" >&2; \
	        exit 1; \
	    fi
	$(GO) test -run '^$$' -bench '$(BENCH_CODEC)' -benchmem -count 3 -cpu 1 . > bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_MATRIX)' -benchmem -count 3 -cpu 1,2,4,8 . >> bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_CHAR)' -benchmem -count 3 -cpu 1 . >> bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_INGEST)' -benchmem -count 3 -cpu 2,4,8 . >> bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	cat bench_streaming.txt
	$(GO) run ./cmd/benchjson < bench_streaming.txt > bench_fresh.json || { rm -f bench_streaming.txt; exit 1; }
	$(GO) run ./cmd/benchjson -compare BENCH_streaming.json -threshold 0.25 -min-cores 4 < bench_streaming.txt > bench_compare.txt 2>&1; \
	    status=$$?; cat bench_compare.txt; rm -f bench_streaming.txt; exit $$status

# bench-history renders the perf trajectory of the committed baseline
# (every BENCH_streaming.json revision in git, oldest → newest) as a
# markdown trend table; CI appends it to the bench-gate step summary.
bench-history:
	$(GO) run ./cmd/benchjson -history BENCH_streaming.json

# fuzz runs the wmslog fuzzers — the text AppendEntry/ParseAppend round
# trip, the generator's line renderer (AppendLine of any numeric record
# and table strings = AppendEntry of its Entry, byte for byte, and a
# ParseAppend fixpoint), the framed-binary round trip, the scan differential
# (arbitrary bytes through the reusing, interning scan and through the
# deferred scan = through the allocating parser — c-os, c-cpu and
# cs(Referer) cleared, the three the deferred scan keeps no string of —
# with the interner's
# ordinals naming every entry's URI and country and Identity's bytes
# equal to its c-ip and c-playerid) and the fixed-2 s-cpu-util encoder (any float64 bit pattern
# prints as strconv's %.2f) — the sessions fuzzer (SweepTimeout's count
# = the reference sessionization's count at every timeout, plus the
# Section 2.2 gap invariants and Sessionize's spans), the replay-check
# fuzzer (loadgen.ReadServed and Check and the event-walk SafeTimeout
# over a fuzzed offered set and the log its replay leaves — whole wall
# seconds, a dropped transfer, a split session, two merged clients, tied
# starts, a duplicate serve in a later or the same second, a logged lost
# event — split over two text, binary or gzip files read in both orders
# = the trace-based check they replaced),
# the sample-sort fuzzer (stats.SortedCopy, SortInPlace
# and SortedView of any float64 bit patterns = sort.Float64s of a
# copy), the concurrency
# fuzzer (the event sweep's report = a count of every second, field by
# field), the population fuzzer (the client table, with each client's
# IP and player id rendered, = the []Client builder, every field of
# every client and the draws consumed), the
# session-cursor fuzzer (a session drawn transfer by transfer from its
# cursor = the eager expansion, event for event and draw for draw) and
# the ingest fuzzer (trace.SortLogs over bytes cut into text, binary and
# gzip files = ReadFiles + FromEntries + Sanitize, at GOMAXPROCS 1 and
# 4; trace.StreamLogs and core.ObserveLogs, figures off and on, held to
# the same trace), the observer fuzzer (the one core.Observer, walked
# over a small random trace — tied starts, overlapping transfers of a
# client, gaps of exactly T_o and T_o+1 — = the batch reference, every
# core field, and with the figure material = the trace-walking figure
# step, every figure field and the audit) and the two ingest kernels
# against their references: the
# word-at-a-time column splitter = the byte loop over any bytes from any
# position, and the keyed trace-order sort = sort.Sort(byStart) over
# tie-heavy rows with NaN/±0 readings and starts too wide for a key —
# and the monotone radix queue (any monotone pushes and PopAtMost
# limits = a sort-based reference, pop for pop) — and the live server's
# control-line parser (any bytes are a command or an ErrProtocol error,
# an accepted HELLO's player ID passes wmslog.MandatoryField, and an
# accepted command rendered back parses to itself) and its connection
# handler (any client bytes through net.Pipe: no panic, every reply one
# the protocol defines in the order the state machine owes it, ERR for
# anything malformed, and a return within a second of the client's last
# act) — and the model-spec
# fuzzer (gismo.LoadModel over any bytes never panics, and a spec it
# accepts saves, re-loads to the same model and re-saves byte for byte)
# — and the streamed-schedule fuzzer (a stream whose schedule is drawn
# beside its 1–8 shards drains to the 1-shard stream, and the schedule
# to the thinning pass, on a dense and a sparse model).
# `go test` runs one fuzz target per invocation, hence the
# twenty steps; new failing inputs are minimized into the package's
# testdata/fuzz/ and reproduce with a plain `go test` of that package.
# An ingest or replay-check execution writes its files to disk, and a
# connection execution can wait out the handler's 50 ms idle timeout,
# so those three targets bound the minimizing of each new input at 2 s:
# at the default 60 s they spend their whole budget minimizing.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzAppendEntryRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wmslog
	$(GO) test -run '^$$' -fuzz '^FuzzLineMatchesAppendEntry$$' -fuzztime $(FUZZTIME) ./internal/wmslog
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wmslog
	$(GO) test -run '^$$' -fuzz '^FuzzScanMatchesReadAll$$' -fuzztime $(FUZZTIME) ./internal/wmslog
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFixed2$$' -fuzztime $(FUZZTIME) ./internal/wmslog
	$(GO) test -run '^$$' -fuzz '^FuzzSplitterMatchesByteLoop$$' -fuzztime $(FUZZTIME) ./internal/wmslog
	$(GO) test -run '^$$' -fuzz '^FuzzSweepMatchesSessionize$$' -fuzztime $(FUZZTIME) ./internal/sessions
	$(GO) test -run '^$$' -fuzz '^FuzzCheckMatchesTraceOracle$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/loadgen
	$(GO) test -run '^$$' -fuzz '^FuzzSortMatchesStdlib$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzConcurrencyMatchesPerSecond$$' -fuzztime $(FUZZTIME) ./internal/analyze
	$(GO) test -run '^$$' -fuzz '^FuzzPopulationMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/gismo
	$(GO) test -run '^$$' -fuzz '^FuzzSessionCursorMatchesExpand$$' -fuzztime $(FUZZTIME) ./internal/gismo
	$(GO) test -run '^$$' -fuzz '^FuzzFromLogsMatchesFromEntries$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSortTraceOrderMatchesSort$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzObserverMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRadixMatchesSort$$' -fuzztime $(FUZZTIME) ./internal/heapx
	$(GO) test -run '^$$' -fuzz '^FuzzParseCommand$$' -fuzztime $(FUZZTIME) ./internal/liveserver
	$(GO) test -run '^$$' -fuzz '^FuzzHandleConn$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/liveserver
	$(GO) test -run '^$$' -fuzz '^FuzzLoadModel$$' -fuzztime $(FUZZTIME) ./internal/gismo
	$(GO) test -run '^$$' -fuzz '^FuzzStreamedSchedule$$' -fuzztime $(FUZZTIME) ./internal/gismo

# e2e exercises the full socket path: build lsmserve, lsmload and
# lsmlog, start the server, replay the committed model spec
# scripts/e2e_model.json (its in-show events draw a crowd) over real
# TCP in compressed time, shut the server down, verify the served log
# matches the offered workload exactly, and round-trip the log through
# the binary format, which must check to the same realization digest.
e2e:
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmserve ./cmd/lsmserve
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmload ./cmd/lsmload
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmlog ./cmd/lsmlog
	BIN=$(BIN) ./scripts/e2e.sh

# e2e-twin exercises the calibration loop: generate a workload, fit a
# model to its characterization, regenerate a twin and KS-validate it
# strictly — once on one core and once on the default, with the same
# spec and stdout required of both — then feed the fitted spec back
# through lsmgen and check the spec round-trips byte-identically.
e2e-twin:
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmgen ./cmd/lsmgen
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmcal ./cmd/lsmcal
	BIN=$(BIN) ./scripts/e2e_twin.sh

# profile captures pprof/trace artifacts from a representative
# streaming run (the generate → simulate → log pipeline at bench-like
# density) and from the measurement half reading those logs back
# (lsmcal: parse → characterize → fit) under profiles/. Inspect with
# `go tool pprof profiles/cpu.pprof` (profiles/cal-cpu.pprof) /
# `go tool trace profiles/trace.out`; CI uploads the directory on
# demand (workflow_dispatch with profile=true).
PROFILE_ARGS ?= -stream -scale 5 -days 7 -seed 1
PROFILE_CAL_ARGS ?= -days 7 -seed 1
profile:
	$(GO) build -o $(BIN)/lsmgen ./cmd/lsmgen
	$(GO) build -o $(BIN)/lsmcal ./cmd/lsmcal
	mkdir -p profiles
	rm -rf profiles/logs
	$(BIN)/lsmgen -out profiles/logs $(PROFILE_ARGS) \
		-cpuprofile profiles/cpu.pprof \
		-memprofile profiles/mem.pprof \
		-trace profiles/trace.out
	$(BIN)/lsmcal -logs profiles/logs $(PROFILE_CAL_ARGS) \
		-cpuprofile profiles/cal-cpu.pprof \
		-memprofile profiles/cal-mem.pprof \
		-trace profiles/cal-trace.out
	@ls -l profiles/
