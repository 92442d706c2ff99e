#!/usr/bin/env bash
# bench.sh runs the repo's go-test benchmark groups and distills each
# into a JSON artifact CI can upload, so regressions show up as a
# number, not a feeling:
#
#   1. BenchmarkKernelSimilarityBlocked / BenchmarkKernelSimilarityNaive
#      (the §5.3.4 stress test at n=64 consumers) -> BENCH_similarity.json
#      with mean ns/op, B/op, allocs/op per variant plus the
#      blocked-over-naive speedup.
#   2. BenchmarkFault{Baseline,QuarantineZero,QuarantineInjected}
#      (fail-fast with no fault wrapper vs the full containment
#      machinery at a zero injection rate vs a 5% mixed rate)
#      -> BENCH_fault.json with mean ns/op per variant plus the
#      zero-rate-over-baseline overhead ratio. Containment that nobody
#      triggers should be nearly free: the no-fault overhead target is
#      <3% (ratio <= 1.03).
#   3. BenchmarkScaleupPaged{ThreeLine,Histogram,PAR} (tasks over the
#      compressed, paged column store under a quarter-of-raw memory
#      budget) plus BenchmarkScaleupEncode{Serial,Parallel} (the
#      segment-encode pool A/B) -> BENCH_scale.json. The "ci_run" and
#      optional "large_run" objects share one schema: consumers, days,
#      cpus, encoders, raw/stored/budget MB, compression ratio, encode
#      throughput (generate+encode consumers/s and readings/s) and
#      ns_per_op + rows_per_s per task (threeline, histogram, par).
#      The ratio target is >= 4x on Wh-quantized synthetic data; the
#      encode pool's speedup target is >= 1.8x at 4 cores (on a 1-CPU
#      host expect parity — read "cpus" alongside it). Set
#      SCALE_CONSUMERS (and optionally SCALE_DAYS, default 365, and
#      SCALE_ENCODERS, default nproc) to add a single-shot large run —
#      e.g. SCALE_CONSUMERS=1000000 streams a 1M-consumer x 365-day
#      year through the same paged path and records it as "large_run".
#   4. BenchmarkIngest{Colstore,Rowstore}[WAL{Batch,Always}] (4 sharded
#      writers appending 3 live days onto the loaded base through the
#      core.Appender contract, swept over wal=off/batch/always)
#      -> BENCH_ingest.json with sustained append records/s and the
#      freshness lag (last append -> histogram over a read-isolated
#      snapshot) per engine and wal mode, plus the batch-over-off
#      wal_batch_overhead ratio. The durable modes fsync before acking,
#      so the ratio is bounded below by the host's fsync latency times
#      the hour-batch count — read it against "fsync_ns" in the JSON,
#      not against an in-memory ideal.
#   5. BenchmarkRecovery{Colstore,Rowstore} (kill the engine with the
#      live tail only in the wal=batch log, then time reopen + replay +
#      first verified histogram) -> BENCH_recovery.json with
#      crash-to-first-answer ns/op and replay records/s per engine.
#
# For a statistical A/B over two checkouts, feed the raw output files
# to benchstat (golang.org/x/perf) instead.
#
#   COUNT=6 ./scripts/bench.sh        # repetitions (default 6)
#   OUT=BENCH_similarity.json         # similarity output path override
#   FAULT_OUT=BENCH_fault.json        # fault output path override
#   SCALE_OUT=BENCH_scale.json        # scale-up output path override
#   SCALE_CONSUMERS=1000000           # add a paper-scale single-shot run
#   SCALE_DAYS=365                    # days for the large run (default 365)
#   SCALE_ENCODERS=4                  # encode workers for the large run (default nproc)
#   INGEST_OUT=BENCH_ingest.json      # ingest output path override
#   RECOVERY_OUT=BENCH_recovery.json  # recovery output path override
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-6}"
OUT="${OUT:-BENCH_similarity.json}"
FAULT_OUT="${FAULT_OUT:-BENCH_fault.json}"
SCALE_OUT="${SCALE_OUT:-BENCH_scale.json}"
INGEST_OUT="${INGEST_OUT:-BENCH_ingest.json}"
RECOVERY_OUT="${RECOVERY_OUT:-BENCH_recovery.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== go test -bench 'BenchmarkKernelSimilarity(Blocked|Naive)' -count $COUNT -benchmem"
go test -run '^$' -bench 'BenchmarkKernelSimilarity(Blocked|Naive)$' \
  -count "$COUNT" -benchmem -timeout 20m . | tee "$RAW"

awk -v out="$OUT" '
  /^BenchmarkKernelSimilarity(Blocked|Naive)/ {
    name = $1
    sub(/^BenchmarkKernelSimilarity/, "", name)
    sub(/-[0-9]+$/, "", name)
    ns[name] += $3; bytes[name] += $5; allocs[name] += $7; runs[name]++
  }
  END {
    if (runs["Blocked"] == 0 || runs["Naive"] == 0) {
      print "bench.sh: missing Blocked or Naive benchmark output" > "/dev/stderr"
      exit 1
    }
    bn = ns["Blocked"] / runs["Blocked"]
    nn = ns["Naive"] / runs["Naive"]
    printf "{\n" > out
    printf "  \"benchmark\": \"BenchmarkKernelSimilarity\",\n" >> out
    printf "  \"consumers\": 64,\n" >> out
    printf "  \"count\": %d,\n", runs["Blocked"] >> out
    printf "  \"blocked\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.1f},\n", \
      bn, bytes["Blocked"] / runs["Blocked"], allocs["Blocked"] / runs["Blocked"] >> out
    printf "  \"naive\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.1f},\n", \
      nn, bytes["Naive"] / runs["Naive"], allocs["Naive"] / runs["Naive"] >> out
    printf "  \"speedup\": %.2f\n", nn / bn >> out
    printf "}\n" >> out
  }
' "$RAW"

echo "== wrote $OUT"
cat "$OUT"

echo "== go test -bench 'BenchmarkFault(Baseline|QuarantineZero|QuarantineInjected)' -count $COUNT"
go test -run '^$' -bench 'BenchmarkFault(Baseline|QuarantineZero|QuarantineInjected)$' \
  -count "$COUNT" -timeout 20m . | tee "$RAW"

awk -v out="$FAULT_OUT" '
  /^BenchmarkFault(Baseline|QuarantineZero|QuarantineInjected)/ {
    name = $1
    sub(/^BenchmarkFault/, "", name)
    sub(/-[0-9]+$/, "", name)
    ns[name] += $3; runs[name]++
  }
  END {
    if (runs["Baseline"] == 0 || runs["QuarantineZero"] == 0 ||
        runs["QuarantineInjected"] == 0) {
      print "bench.sh: missing fault benchmark output" > "/dev/stderr"
      exit 1
    }
    bn = ns["Baseline"] / runs["Baseline"]
    qz = ns["QuarantineZero"] / runs["QuarantineZero"]
    qi = ns["QuarantineInjected"] / runs["QuarantineInjected"]
    printf "{\n" > out
    printf "  \"benchmark\": \"BenchmarkFaultContainmentOverhead\",\n" >> out
    printf "  \"count\": %d,\n", runs["Baseline"] >> out
    printf "  \"baseline\": {\"ns_per_op\": %.1f},\n", bn >> out
    printf "  \"quarantine_zero\": {\"ns_per_op\": %.1f},\n", qz >> out
    printf "  \"quarantine_injected_5pct\": {\"ns_per_op\": %.1f},\n", qi >> out
    printf "  \"no_fault_overhead\": %.3f,\n", qz / bn >> out
    printf "  \"no_fault_overhead_target\": 1.03\n" >> out
    printf "}\n" >> out
  }
' "$RAW"

echo "== wrote $FAULT_OUT"
cat "$FAULT_OUT"
echo "== go test -bench 'BenchmarkScaleup(Paged(ThreeLine|Histogram|PAR)|Encode(Serial|Parallel))' -count $COUNT"
go test -run '^$' -bench 'BenchmarkScaleup(Paged(ThreeLine|Histogram|PAR)|Encode(Serial|Parallel))$' \
  -count "$COUNT" -timeout 20m . | tee "$RAW"

# Optional paper-scale pass: one shot at SCALE_CONSUMERS x SCALE_DAYS
# through the same paged benchmarks (encode throughput rides along in
# the ThreeLine build phase, so the big population is encoded once, not
# re-benchmarked). Streaming generation means the raw matrix (8
# bytes/reading) never materializes; only the compressed segment file
# and the quarter-of-raw page cache are resident.
RAW_BIG=""
CPUS="$(nproc 2>/dev/null || echo 1)"
if [ -n "${SCALE_CONSUMERS:-}" ]; then
  RAW_BIG="$(mktemp)"
  trap 'rm -f "$RAW" "$RAW_BIG"' EXIT
  echo "== large run: $SCALE_CONSUMERS consumers x ${SCALE_DAYS:-365} days, ${SCALE_ENCODERS:-$CPUS} encoders (single shot)"
  SMARTBENCH_SCALE_CONSUMERS="$SCALE_CONSUMERS" SMARTBENCH_SCALE_DAYS="${SCALE_DAYS:-365}" \
    SMARTBENCH_SCALE_ENCODERS="${SCALE_ENCODERS:-$CPUS}" \
    go test -run '^$' -bench 'BenchmarkScaleupPaged(ThreeLine|Histogram|PAR)$' \
    -benchtime 1x -count 1 -timeout 600m . | tee "$RAW_BIG"
fi

awk -v out="$SCALE_OUT" -v cpus="$CPUS" -v bigc="${SCALE_CONSUMERS:-0}" -v bigd="${SCALE_DAYS:-365}" '
  # taskline emits one task sub-object of a run block.
  function taskline(ind, label, key, tail) {
    printf "%s\"%s\": {\"ns_per_op\": %.1f, \"rows_per_s\": %.1f}%s\n", \
      ind, label, ns[key] / runs[key], rows[key] / runs[key], tail >> out
  }
  # runblock emits the uniform per-run schema shared by the CI-scale
  # block and the optional large run: population, host, storage and
  # encode-throughput fields, then one sub-object per task. pfx keys
  # into the arrays ("" for the CI file, "Big" for the large run).
  function runblock(pfx, c, d, ind,   t) {
    t = pfx "ThreeLine"
    printf "%s\"consumers\": %d,\n", ind, c >> out
    printf "%s\"days\": %d,\n", ind, d >> out
    printf "%s\"cpus\": %d,\n", ind, cpus >> out
    printf "%s\"encoders\": %d,\n", ind, enc[t] / runs[t] >> out
    printf "%s\"raw_mb\": %.3f,\n", ind, raw[t] / runs[t] >> out
    printf "%s\"stored_mb\": %.3f,\n", ind, stored[t] / runs[t] >> out
    printf "%s\"budget_mb\": %.3f,\n", ind, budget[t] / runs[t] >> out
    printf "%s\"compression_ratio\": %.2f,\n", ind, ratio[t] / runs[t] >> out
    printf "%s\"encode\": {\"consumers_per_s\": %.1f, \"readings_per_s\": %.0f},\n", \
      ind, encrows[t] / runs[t], encread[t] / runs[t] >> out
    taskline(ind, "threeline", t, ",")
    taskline(ind, "histogram", pfx "Histogram", ",")
    taskline(ind, "par", pfx "PAR", "")
  }
  /^BenchmarkScaleup(Paged(ThreeLine|Histogram|PAR)|Encode(Serial|Parallel))/ {
    name = $1
    sub(/^BenchmarkScaleupPaged/, "", name)
    sub(/^BenchmarkScaleup/, "", name)
    sub(/-[0-9]+$/, "", name)
    # Records from the second input file (the large run) land in their
    # own arrays, keyed the same way.
    if (ARGC > 2 && FILENAME == ARGV[2]) { name = "Big" name }
    ns[name] += $3; runs[name]++
    # Custom metrics follow ns/op as value-unit pairs (budgetMB,
    # enc-readings/s, enc-rows/s, encoders, ratio, rawMB, readings/s,
    # rows/s, storedMB), alphabetically ordered by go test.
    for (i = 4; i < NF; i += 2) {
      v = $(i + 1); u = $(i + 2)
      if (u == "ratio")          { ratio[name] += v; }
      if (u == "rawMB")          { raw[name] += v; }
      if (u == "storedMB")       { stored[name] += v; }
      if (u == "budgetMB")       { budget[name] += v; }
      if (u == "rows/s")         { rows[name] += v; }
      if (u == "enc-rows/s")     { encrows[name] += v; }
      if (u == "enc-readings/s") { encread[name] += v; }
      if (u == "encoders")       { enc[name] += v; }
    }
  }
  END {
    if (runs["ThreeLine"] == 0 || runs["Histogram"] == 0 || runs["PAR"] == 0 ||
        runs["EncodeSerial"] == 0 || runs["EncodeParallel"] == 0) {
      print "bench.sh: missing scaleup benchmark output" > "/dev/stderr"
      exit 1
    }
    es = ns["EncodeSerial"] / runs["EncodeSerial"]
    ep = ns["EncodeParallel"] / runs["EncodeParallel"]
    printf "{\n" > out
    printf "  \"benchmark\": \"BenchmarkScaleup\",\n" >> out
    printf "  \"budget_fraction_of_raw\": 0.25,\n" >> out
    printf "  \"compression_ratio_target\": 4.0,\n" >> out
    printf "  \"count\": %d,\n", runs["ThreeLine"] >> out
    printf "  \"ci_run\": {\n" >> out
    runblock("", 64, 60, "    ")
    printf "  },\n" >> out
    printf "  \"encode_parallel\": {\n" >> out
    printf "    \"consumers\": 32,\n" >> out
    printf "    \"workers\": 4,\n" >> out
    printf "    \"cpus\": %d,\n", cpus >> out
    printf "    \"serial_ns_per_op\": %.1f,\n", es >> out
    printf "    \"parallel_ns_per_op\": %.1f,\n", ep >> out
    printf "    \"speedup\": %.2f,\n", es / ep >> out
    printf "    \"expected_speedup_at_4_cores\": 1.8\n" >> out
    sep = (runs["BigThreeLine"] > 0) ? "," : ""
    printf "  }%s\n", sep >> out
    if (runs["BigThreeLine"] > 0) {
      printf "  \"large_run\": {\n" >> out
      runblock("Big", bigc, bigd, "    ")
      printf "  }\n" >> out
    }
    printf "}\n" >> out
  }
' "$RAW" ${RAW_BIG:+"$RAW_BIG"}

echo "== wrote $SCALE_OUT"
cat "$SCALE_OUT"

echo "== go test -bench 'BenchmarkIngest(Colstore|Rowstore)(WAL(Batch|Always))?|BenchmarkFsync' -count $COUNT"
go test -run '^$' -bench '(BenchmarkIngest(Colstore|Rowstore)(WAL(Batch|Always))?|BenchmarkFsync)$' \
  -count "$COUNT" -timeout 20m . | tee "$RAW"

awk -v out="$INGEST_OUT" '
  # modeline emits one wal-mode sub-object of an engine block.
  function modeline(ind, label, key, tail) {
    printf "%s\"%s\": {\"ns_per_op\": %.1f, \"records_per_s\": %.0f, \"freshness_lag_ms\": %.3f}%s\n", \
      ind, label, ns[key] / runs[key], rate[key] / runs[key], lag[key] / runs[key] / 1e6, tail >> out
  }
  # engineblock emits the off/batch/always sweep for one engine plus
  # the batch-over-off overhead ratio.
  function engineblock(pfx, ind) {
    modeline(ind, "off", pfx, ",")
    modeline(ind, "batch", pfx "WALBatch", ",")
    modeline(ind, "always", pfx "WALAlways", ",")
    printf "%s\"wal_batch_overhead\": %.2f\n", ind, \
      (ns[pfx "WALBatch"] / runs[pfx "WALBatch"]) / (ns[pfx] / runs[pfx]) >> out
  }
  /^BenchmarkFsync/ {
    fsns += $3; fsruns++
  }
  /^BenchmarkIngest(Colstore|Rowstore)/ {
    name = $1
    sub(/^BenchmarkIngest/, "", name)
    sub(/-[0-9]+$/, "", name)
    ns[name] += $3; runs[name]++
    # Custom metrics follow ns/op as value-unit pairs, alphabetically
    # ordered by go test: lagNs then records/s.
    for (i = 4; i < NF; i += 2) {
      v = $(i + 1); u = $(i + 2)
      if (u == "lagNs")     { lag[name] += v; }
      if (u == "records/s") { rate[name] += v; }
    }
  }
  END {
    if (runs["Colstore"] == 0 || runs["Rowstore"] == 0 ||
        runs["ColstoreWALBatch"] == 0 || runs["ColstoreWALAlways"] == 0 ||
        runs["RowstoreWALBatch"] == 0 || runs["RowstoreWALAlways"] == 0 ||
        fsruns == 0) {
      print "bench.sh: missing ingest or fsync benchmark output" > "/dev/stderr"
      exit 1
    }
    printf "{\n" > out
    printf "  \"benchmark\": \"BenchmarkIngest\",\n" >> out
    printf "  \"consumers\": 16,\n" >> out
    printf "  \"live_days\": 3,\n" >> out
    printf "  \"workers\": 4,\n" >> out
    printf "  \"count\": %d,\n", runs["Colstore"] >> out
    printf "  \"fsync_ns\": %.0f,\n", fsns / fsruns >> out
    printf "  \"colstore\": {\n" >> out
    engineblock("Colstore", "    ")
    printf "  },\n" >> out
    printf "  \"rowstore\": {\n" >> out
    engineblock("Rowstore", "    ")
    printf "  },\n" >> out
    printf "  \"wal_batch_overhead_note\": \"durable modes fsync before acking each hour batch; the floor is fsync_ns x 72 hour rounds against an in-memory baseline, so compare overhead against fsync_ns, not 1.0\"\n" >> out
    printf "}\n" >> out
  }
' "$RAW"

echo "== wrote $INGEST_OUT"
cat "$INGEST_OUT"

echo "== go test -bench 'BenchmarkRecovery(Colstore|Rowstore)' -count $COUNT"
go test -run '^$' -bench 'BenchmarkRecovery(Colstore|Rowstore)$' \
  -count "$COUNT" -timeout 20m . | tee "$RAW"

awk -v out="$RECOVERY_OUT" '
  /^BenchmarkRecovery(Colstore|Rowstore)/ {
    name = $1
    sub(/^BenchmarkRecovery/, "", name)
    sub(/-[0-9]+$/, "", name)
    ns[name] += $3; runs[name]++
    # Custom metric follows ns/op as a value-unit pair: replay-records/s.
    for (i = 4; i < NF; i += 2) {
      v = $(i + 1); u = $(i + 2)
      if (u == "replay-records/s") { rate[name] += v; }
    }
  }
  END {
    if (runs["Colstore"] == 0 || runs["Rowstore"] == 0) {
      print "bench.sh: missing recovery benchmark output" > "/dev/stderr"
      exit 1
    }
    cr = runs["Colstore"]; rr = runs["Rowstore"]
    printf "{\n" > out
    printf "  \"benchmark\": \"BenchmarkRecovery\",\n" >> out
    printf "  \"consumers\": 16,\n" >> out
    printf "  \"live_days\": 3,\n" >> out
    printf "  \"wal\": \"batch\",\n" >> out
    printf "  \"count\": %d,\n", cr >> out
    printf "  \"colstore\": {\"ns_per_op\": %.1f, \"replay_records_per_s\": %.0f},\n", \
      ns["Colstore"] / cr, rate["Colstore"] / cr >> out
    printf "  \"rowstore\": {\"ns_per_op\": %.1f, \"replay_records_per_s\": %.0f}\n", \
      ns["Rowstore"] / rr, rate["Rowstore"] / rr >> out
    printf "}\n" >> out
  }
' "$RAW"

echo "== wrote $RECOVERY_OUT"
cat "$RECOVERY_OUT"
