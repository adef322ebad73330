GO ?= go

.PHONY: build test check vet lint race fuzz staticcheck govulncheck bench report lines

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check: the repo's full gate. The scenario gates (availability, monitor,
# scale, vessel at quick size) and the 0-alloc read/simnet gates are
# ordinary tests and run in `test`; nothing here writes a tracked file.
check: vet staticcheck govulncheck lint test race fuzz

# vet: go vet, gofmt, and the dead-API check — a function under internal/
# that no non-test file references fails unless cmd/deadapi/allow.txt names
# it with a reason.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/deadapi

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
	$(GO) test ./internal/gatekeeper -run '^$$' -fuzz '^FuzzParseProjectSpec$$' -fuzztime=5s

# bench: the performance record (BENCHMARK.json; see bench/README.md).
bench:
	$(GO) run ./bench

# report: regenerate EXPERIMENTS.md, the paper-vs-measured record, at full
# size (minutes: the 100k-proxy and 10k-agent scenarios).
report:
	$(GO) run ./cmd/benchreport

# lines: non-test and test Go lines per package directory, then the totals
# CHANGES.md quotes.
lines:
	@find . -name '*.go' -not -path './.*' | xargs wc -l | awk ' \
		$$2 == "total" { next } \
		{ dir = $$2; sub(/\/[^\/]*$$/, "", dir); t = ($$2 ~ /_test\.go$$/); n[dir, t] += $$1; dirs[dir] = 1; \
		  all[t] += $$1; if (dir !~ /^\.\/bench/) out[t] += $$1 } \
		END { printf "%-46s %8s %7s\n", "package", "non-test", "test"; \
		      for (d in dirs) printf "%-46s %8d %7d\n", d, n[d, 0], n[d, 1] | "sort"; close("sort"); \
		      printf "%-46s %8d %7d\n%-46s %8d %7d\n", "total", all[0], all[1], "total outside bench/", out[0], out[1] }'
