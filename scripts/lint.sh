#!/bin/sh
# lint.sh — the repository's static-analysis gate: gofmt, go vet and
# the alloclint suite (see internal/analysis and README.md "Static
# analysis"). CI runs this as the required `lint` job; run it locally
# before pushing:
#
#   scripts/lint.sh
#
# The alloclint binary is built once into GOBIN-style cache-friendly
# form via `go build` so repeated runs (and the CI job, which caches
# ~/.cache/go-build) pay the compile cost only when the analyzers
# change. Exits non-zero on any unformatted file, vet finding or
# alloclint diagnostic.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l"
# Every Go file in the tree, test fixtures included; .bench_build holds
# the benchmark's build output, not sources.
unformatted="$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
  echo "$unformatted"
  echo "lint: gofmt -l lists the files above; run gofmt -w on them" >&2
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build -gcflags=-m (escape facts)"
# Feed compiler escape analysis into hotalloc: anything the compiler
# says "escapes to heap"/"moved to heap" inside a hot function is a
# diagnostic, even when no syntactic pattern catches it. -m output is
# advisory chatter on stderr; the build itself must still succeed.
escapes="${TMPDIR:-/tmp}/alloclint-escapes.$$"
bin="${TMPDIR:-/tmp}/alloclint.$$"
trap 'rm -f "$escapes" "$bin"' EXIT
go build -gcflags=-m ./... 2>"$escapes"

echo "==> alloclint ./..."
go build -o "$bin" ./cmd/alloclint
"$bin" -escapes "$escapes" ./...

echo "lint: clean"
