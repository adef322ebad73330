GO ?= go

.PHONY: build test check vet lint race fuzz staticcheck govulncheck bench report

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check: the repo's full gate. The scenario gates (availability, monitor,
# scale, vessel at quick size) and the 0-alloc read/simnet gates are
# ordinary tests and run in `test`; nothing here writes a tracked file.
check: vet staticcheck govulncheck lint test race fuzz

vet:
	$(GO) vet ./...

# staticcheck / govulncheck: run when the binaries are on PATH, skip with
# a notice otherwise — the build container has no network, so `check`
# must not try to install them.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# lint: the CDL analyzer suite over the example corpus, at the
# strictest threshold — the examples must stay warning-free.
lint:
	$(GO) run ./cmd/configlint -C examples/configs -severity info

# race: every internal package except the experiments (minutes under the
# detector, and single-threaded on the sim clock), so a new package cannot be
# forgotten.
race:
	$(GO) test -race $$($(GO) list ./internal/... | grep -v /experiments)

# fuzz: a short smoke of each native fuzz target, starting from the seed
# corpora under testdata/fuzz (which plain `go test` also replays). A crasher
# is written there as a new corpus file; commit it with the fix.
fuzz:
	$(GO) test ./internal/vcs -run '^$$' -fuzz '^FuzzDeltaRoundTrip$$' -fuzztime=5s
	$(GO) test ./internal/zeus -run '^$$' -fuzz '^FuzzPayloadResolve$$' -fuzztime=5s
	$(GO) test ./internal/zeus -run '^$$' -fuzz '^FuzzCatchUpMatchesReplay$$' -fuzztime=5s

# bench: the performance record (BENCHMARK.json; see bench/README.md).
bench:
	$(GO) run ./bench

# report: regenerate EXPERIMENTS.md, the paper-vs-measured record, at full
# size (minutes: the 100k-proxy and 10k-agent scenarios).
report:
	$(GO) run ./cmd/benchreport
