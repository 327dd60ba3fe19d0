# Tool versions are pinned here — the one place CI and developers agree
# on. Bump them in this file only; .github/workflows/ci.yml invokes
# these targets instead of installing tools inline.
STATICCHECK_VERSION := 2024.1.1
GOVULNCHECK_VERSION := v1.1.3

GOBIN := $(shell go env GOPATH)/bin

.PHONY: all build test race lint sknnlint lint-fixtures staticcheck govulncheck fuzz-smoke bench-smoke tools clean

all: build test lint

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# lint is the full static gate: formatting, go vet, the pinned external
# tools, and the repo's own invariant suite.
lint: sknnlint staticcheck
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...

# sknnlint runs the in-tree analyzer suite over the whole module: the
# TestRepoClean test, which `go test ./...` also runs and which prints
# every finding with its position. docs/INVARIANTS.md catalogues the
# rules.
sknnlint:
	go test -count=1 -run '^TestRepoClean$$' ./internal/lint/sknnlint

# lint-fixtures is the fast inner loop for analyzer authors: every
# analyzer's // want fixture suite plus the cfg/dataflow engine tests,
# no repo-wide package loading.
lint-fixtures:
	go test ./internal/lint/...

staticcheck: $(GOBIN)/staticcheck
	$(GOBIN)/staticcheck ./...

# govulncheck needs the network to fetch the vulnerability database;
# keep it a separate target so offline builds can still run `make lint`.
govulncheck: $(GOBIN)/govulncheck
	$(GOBIN)/govulncheck ./...

$(GOBIN)/staticcheck:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

$(GOBIN)/govulncheck:
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

tools: $(GOBIN)/staticcheck $(GOBIN)/govulncheck

fuzz-smoke:
	go test -fuzz=FuzzSnapshotRead -fuzztime=30s ./internal/store
	go test -fuzz=FuzzKeyRead -fuzztime=15s ./internal/store
	go test -fuzz=FuzzFrameDecode -fuzztime=20s ./internal/mpc
	go test -fuzz=FuzzFields -fuzztime=20s ./internal/mpc
	go test -fuzz=FuzzShardFrame -fuzztime=20s ./internal/core
	go test -fuzz=FuzzCloudC2Frame -fuzztime=20s ./internal/core
	go test -fuzz=FuzzResponderFrame -fuzztime=20s ./internal/smc
	go test -fuzz=FuzzRequesterReply -fuzztime=20s ./internal/smc
	go test -fuzz=FuzzGateResult -fuzztime=20s ./internal/gateway
	go test -fuzz=FuzzPackDecode -fuzztime=20s ./internal/paillier
	go test -fuzz=FuzzDecodeCandidates -fuzztime=15s ./internal/svdknn
	go test -fuzz=FuzzFixedBaseExp -fuzztime=20s ./internal/paillier
	go test -fuzz=FuzzMultiScalarMul -fuzztime=20s ./internal/paillier
	go test -fuzz=FuzzMontMul -fuzztime=20s ./internal/paillier

# bench-smoke runs all four of the benchmark's workloads for 5 s each:
# secure_scan (the facade), gateway_sharded (every link TCP, the parties
# composed from internal/core as the daemons compose them — same nonce
# kernel as the facade, built with each key), basic_tcp (SkNNb's packed scan and
# row-packed reveal over real TCP frames, with the core.smin_count == 0
# bypass check) and live_mixed (the clustered index under Insert and
# Delete: centroid ranking and the pruned scan, the path both halves of
# the kept tournament level change). Every answer is checked against the
# plaintext oracle and the cost-model checks gate the exit code; the
# timings of a 5 s run are not for comparing.
bench-smoke:
	bash bench/run.sh --workload secure_scan --seconds 5
	bash bench/run.sh --workload gateway_sharded --seconds 5
	bash bench/run.sh --workload basic_tcp --seconds 5
	bash bench/run.sh --workload live_mixed --seconds 5

clean:
	go clean ./...
