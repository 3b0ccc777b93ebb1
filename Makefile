# Wi-LE reproduction — common workflows.

GO ?= go

.PHONY: all build test lint race bench lab examples fuzz cover clean

all: build test lint race

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Static analysis: go vet plus the project's own wile-vet suite (simclock,
# unitsafety, invariantpanic, noretain, poolsafe, lockguard, errdrop,
# obsguard). -unused-allows also fails the build on stale //wile:allow
# directives, so suppressions cannot outlive the code they excused.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/wile-vet -unused-allows ./...

race:
	$(GO) test -race ./...

# The full evaluation: Table 1, Figures 3a/3b/4, §3.1 claims, ablations.
lab:
	$(GO) run ./cmd/wile-lab -out results all

# Benchmark trajectory: raw output under results/, plus the
# machine-readable baseline future PRs diff ns/op and µJ/pkt against.
# GOMAXPROCS=1 and -cpu 1 pin one proc, as CI's bench gate does, because
# the gate matches lanes by name only. -cpu 1 alone is not enough: the
# default experiment pool is sized from GOMAXPROCS when the test binary
# starts, and a wider pool allocates more per op (Fig4 and the ablation
# sweeps: +5 on a 2-vCPU host).
bench:
	mkdir -p results
	GOMAXPROCS=1 $(GO) test -bench=. -benchmem -cpu 1 ./... 2>&1 | tee results/bench_output.txt
	$(GO) run ./scripts/benchjson -in results/bench_output.txt -out BENCH_baseline.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/farm
	$(GO) run ./examples/smartphone
	$(GO) run ./examples/twoway
	$(GO) run ./examples/secure
	$(GO) run ./examples/wardrive
	$(GO) run ./examples/metering

# Short fuzz sessions on every fuzz target (extend the fuzztime argument
# for real runs). scripts/fuzz.sh finds the targets with go test -list, so
# a new target needs no edit here or in CI.
fuzz:
	bash scripts/fuzz.sh 30s

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -rf results cover.out
