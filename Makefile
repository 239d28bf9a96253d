GO ?= go

.PHONY: all build vet test race bench chaos-smoke determinism-smoke prov-smoke verify-smoke serve-smoke scale-smoke bench-harness fmt-check experiments

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

# The benchmark harness is its own module (fvnbench/go.mod): its tests
# (negative controls, metric-name pins) do not run under go test ./...
bench-harness:
	cd fvnbench && $(GO) test ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

experiments:
	$(GO) run ./cmd/experiments
