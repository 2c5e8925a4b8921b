# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

.PHONY: all build test race bench bench-check fmt vet

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

fmt:
	gofmt -w .

vet:
	go vet ./...

# bench regenerates the committed performance artifacts. Run it (and
# commit the results) whenever a benchmark suite, its fixture, or a
# measured hot path changes shape.
bench:
	go run ./cmd/benchreplay -out BENCH_replay.json
	go run ./cmd/benchreplay -suite runner -out BENCH_runner.json

# bench-check is the CI gate: re-measures both suites, verifies the
# committed artifacts are structurally fresh, and enforces the
# performance invariants (replay: batch decode >= 2x per-record, a row
# of three engines >= 1.1x their separate jobs, a pipelined PIF replay
# >= 1.2x the same replay on one CPU at 2+ CPUs, ~0 allocs/record;
# runner: engine-spec resolution a few percent of job
# runtime at most, a program build within 128 allocations, and a row
# through a loopback coordinator and worker within 2x the same row run
# locally).
bench-check:
	go run ./cmd/benchreplay -check BENCH_replay.json
	go run ./cmd/benchreplay -suite runner -check BENCH_runner.json
