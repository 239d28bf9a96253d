GO ?= go

.PHONY: all build vet test race bench chaos-smoke determinism-smoke prov-smoke verify-smoke serve-smoke scale-smoke differential bench-harness fmt-check experiments

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_PR10.json

chaos-smoke:
	$(GO) run -race ./cmd/fvn chaos -n 25 -topo ring:6
	$(GO) run -race ./cmd/fvn chaos -n 12 -topo ring:8 -crashes 3 -reliable -checkpoint-every 10 -anti-entropy

determinism-smoke:
	$(GO) test -race -count=1 -run 'TestSameSeedRunsBitForBitReproducible' ./internal/dist/

prov-smoke:
	$(GO) run -race ./cmd/fvn chaos -n 8 -topo ring:6 -prov
	$(GO) run -race ./cmd/fvn why -topo ring:6 -tuple 'bestPathCost(n0,n1,1)'

verify-smoke:
	$(GO) run -race ./cmd/fvn verify -suite -workers 4 -explain

serve-smoke:
	$(GO) test -race -run TestServeSmoke -v ./cmd/fvn

scale-smoke:
	$(GO) test -count=1 -run 'TestScaleISP10k|TestFatTreeConverges' -v -timeout 10m ./internal/dist/

# The oracle tests under the race detector: the engine against dist on
# generated programs (facts at t=0, and negated facts arriving late), dist
# against the centralized spec, crash/restart against a fault-free run,
# incremental churn against recomputation, and the programs both
# evaluators must agree on; then the engine's own incremental-vs-fresh
# oracles.
differential:
	$(GO) test -race -count=1 -run '^(TestEngineDistAgreeOnRandomPrograms|TestEngineDistAgreeWithLateNegation|TestDistributedEquivalentToCentralizedQuick|TestGeneratedProgramsSurviveCrashRestart|TestIncrementalChurnMatchesRecomputeOnRandomPrograms|TestDistMatchesEngine)$$' -v ./internal/dist/
	$(GO) test -race -count=1 -run '^(TestUpdateMatchesFreshRun|TestUpdateNegationAndAggregates|TestDifferentialRandomTopologies|TestPathVectorDeletionStaysIncremental)$$' -v ./internal/datalog/

# The benchmark harness is its own module (fvnbench/go.mod): its tests
# (negative controls, metric-name pins) do not run under go test ./...
bench-harness:
	cd fvnbench && $(GO) test ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

experiments:
	$(GO) run ./cmd/experiments
