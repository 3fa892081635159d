#!/usr/bin/env bash
# CI entry point for the benchmark module (bench/ is a module of its own,
# so the repository's `go test ./...` does not reach it). A later PR can
# call this from .github/workflows/ci.yml:
#
#   bash bench/ci.sh                  vet, race tests, smoke suite, self-compare
#   bash bench/ci.sh baseline.json    ... and gate the smoke suite against a baseline
#                                     taken at the same scale on the same host
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
test -z "$(gofmt -l .)" || { echo "gofmt needed on: $(gofmt -l .)" >&2; exit 1; }
go vet ./...
go test -race -timeout 10m ./...
mkdir -p out/ci
go build -o out/ci/bench .
out/ci/bench -scale 0.01 -seeds 1,2,3 -out out/ci
out/ci/bench -compare out/ci/suite.json out/ci/suite.json
if [ $# -ge 1 ]; then
	out/ci/bench -compare "$1" out/ci/suite.json
fi
