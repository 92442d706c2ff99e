#!/usr/bin/env bash
# check.sh is the single verification entrypoint for the repo: build,
# vet, a gofmt gate, the repo-native smlint analyzers, then the full
# test suite under the race detector. CI runs exactly this script; run
# it locally before sending a PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# Formatting gate over tracked Go files. cmd/smlint/testdata is left
# out: its fixtures' layout is pinned by the analyzers' want comments.
echo "== gofmt -l (tracked .go files)"
unformatted=$(git ls-files -z -- '*.go' ':!cmd/smlint/testdata/**' | xargs -0 -r gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt would reformat:"
	echo "$unformatted"
	exit 1
fi

echo "== go run ./cmd/smlint ./..."
go run ./cmd/smlint ./...

# The execution layer and the engines under it are the concurrency
# hot spots (the streaming pipeline's decode/compute goroutine fan-out,
# which every per-consumer run uses, even over one cursor; the
# partition cursors' shared state — refcounted indexes, latched buffer
# pools, shared RDD jobs — and block scheduling); surface a race there
# as its own failure before the full suite runs. Engine layering (and
# every other analyzer) is covered by the single smlint sweep above —
# ./... includes ./internal/engine/..., so a second invocation would
# only repeat the same findings.
echo "== go test -race ./internal/exec/... ./internal/engine/... (streaming pipeline + partition cursors)"
go test -race ./internal/exec/... ./internal/engine/...

# Chaos conformance: every engine cursor under injected faults and
# mid-extract cancellation, raced. These tests also run inside the full
# suite below, but a containment or leak regression should fail here
# under its own name rather than somewhere inside "go test ./...".
echo "== go test -race -run 'Chaos|Cancel|Fault' ./... (fault containment + cancellation)"
go test -race -run 'Chaos|Cancel|Fault' ./...

# Recovery conformance: the deterministic crash-injection sweep (kill
# ingestion at every counted disk op, reopen, demand bit-exact acked
# prefixes), torn-tail truncation and the wal unit suite, raced. Same
# rationale as the chaos step: a durability regression fails under its
# own name.
echo "== go test -race -run 'Recovery|Crash|WAL' ./... (crash recovery + wal)"
go test -race -run 'Recovery|Crash|WAL' ./...

echo "== go test -race ./..."
go test -race ./...

echo "check.sh: all green"
