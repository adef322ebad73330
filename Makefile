GO ?= go

.PHONY: build test check vet lint race staticcheck govulncheck bench-obs bench-compile bench-distribution bench-availability bench-readpath bench-dataflow bench-monitor bench-scale smoke-scale bench-vessel smoke-vessel report

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check: the static-analysis gates (go vet for the Go code, staticcheck
# and govulncheck when installed, configlint for the CDL corpus), the
# race detector over the concurrent packages (engine worker pool +
# dataflow index, pipeline, proxy, zeus, strip, canary, obs — zeus
# and proxy run the batched, delta-encoded distribution plane; simnet,
# confclient and cluster run the fault plane and the degradation read
# path; vcs and tailer read snapshots that share directory nodes with
# every later commit), the obs smoke run that regenerates BENCH_obs.json, the
# distribution-plane smoke that regenerates and asserts
# BENCH_distribution.json, the availability smoke that regenerates
# and asserts BENCH_availability.json, the read-hot-path smoke that
# regenerates and asserts BENCH_readpath.json (zero allocs per warm
# read, >= 5x over the lock+decode baseline at 32 readers), and the
# dataflow smoke that regenerates and asserts BENCH_dataflow.json
# (memo-warm whole-repo provenance >= 5x cold, one-edit recompute
# bounded to the provenance cone), and the fleet-monitoring smoke that
# regenerates and asserts BENCH_monitor.json (monitoring overhead <= 5%
# on the read path, 0 allocs per warm read with the health plane on,
# SLO alerts fire during the scripted outage and clear after heal), and
# the fleet-scale smoke that asserts the BENCH_scale.json gates at quick
# size (0 allocs per warm Send/SetTimer, same-seed determinism, events/sec
# floor, allocs/event ceiling, full §6.3 convergence), and the vessel
# smoke that asserts the content-addressed PackageVessel gates at quick
# size (fleet delivery under four minutes, delta publish under 25% of
# full-package bytes, crash-resume with no re-fetch of verified chunks,
# same-seed determinism).
check: vet staticcheck govulncheck lint race bench-obs bench-distribution bench-availability bench-readpath bench-dataflow bench-monitor smoke-scale smoke-vessel

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

race:
	$(GO) test -race ./internal/obs/... ./internal/cdl/... ./internal/core/... ./internal/proxy/... ./internal/zeus/... ./internal/landingstrip/... ./internal/canary/... ./internal/simnet/... ./internal/confclient/... ./internal/cluster/... ./internal/monitor/... ./internal/packagevessel/... ./internal/vcs/... ./internal/tailer/...

# bench-obs: smoke-run the observability experiment and leave its raw
# registry dump (BENCH_obs.json) in the repo root.
bench-obs:
	$(GO) run ./cmd/benchreport -quick -only obs -o - > /dev/null

# bench-distribution: smoke-run the distribution-plane experiment (leaves
# BENCH_distribution.json in the repo root) and assert the artifact's
# schema and headline claims — group-commit speedup, delta bytes a small
# fraction of full-snapshot bytes, propagation p99 no worse.
bench-distribution:
	$(GO) run ./cmd/benchreport -quick -only distribution -o - > /dev/null
	$(GO) test -run TestDistributionArtifact ./internal/experiments/

# bench-availability: smoke-run the graceful-degradation experiment
# (leaves BENCH_availability.json in the repo root) and assert the
# artifact's headline claims — 100% read availability with stale-serve
# on vs measurably lower off, staleness quantiles populated, bounded
# convergence after heal, and every scripted fault mirrored into the
# obs counters.
bench-availability:
	$(GO) run ./cmd/benchreport -quick -only availability -o - > /dev/null
	$(GO) test -run TestAvailabilityArtifact ./internal/experiments/

# bench-readpath: smoke-run the read-hot-path experiment (leaves
# BENCH_readpath.json in the repo root) and assert the artifact's schema
# and headline claims — allocs_per_read == 0, allocs_per_get == 0,
# >= 5x reads/sec over the per-read lock+decode baseline at 32 readers,
# commit-to-read freshness measured and bounded.
bench-readpath:
	$(GO) run ./cmd/benchreport -quick -only readpath -o - > /dev/null
	$(GO) test -run TestReadpathArtifact ./internal/experiments/

# bench-dataflow: smoke-run the whole-repo dataflow experiment (leaves
# BENCH_dataflow.json in the repo root) and assert the artifact's schema
# and headline claims — warm analyze >= 5x cold, a one-sitevar edit
# recomputes only its provenance cone, radius queries with sane quantiles.
bench-dataflow:
	$(GO) run ./cmd/benchreport -quick -only dataflow -o - > /dev/null
	$(GO) test -run TestDataflowArtifact ./internal/experiments/

# bench-monitor: smoke-run the fleet-monitoring experiment (leaves
# BENCH_monitor.json in the repo root) and assert the artifact's schema
# and headline claims — read-path overhead <= 5% with the health plane
# attached, 0 allocs per warm read/Get while monitored, time-to-head
# quantiles populated, and the convergence SLO alert firing during the
# scripted observer outage and clearing after recovery.
bench-monitor:
	$(GO) run ./cmd/benchreport -quick -only monitor -o - > /dev/null
	$(GO) test -run TestMonitorArtifact ./internal/experiments/

# bench-scale: the full-size fleet-scale run — the §6.3 propagation wave at
# 100k proxies and the §5 mobile hybrid at 1M devices, each run twice with
# the same seed — leaves BENCH_scale.json in the repo root, then asserts
# the artifact gates and the 0-alloc simnet micro-benchmarks. Minutes of
# wall clock; `check` runs the quick smoke-scale variant instead.
bench-scale:
	$(GO) run ./cmd/benchreport -only scale -o - > /dev/null
	$(GO) test -run TestScaleArtifact ./internal/experiments/
	$(GO) test -run xxx -bench 'BenchmarkSimnet(Send|Timer)$$' -benchmem .

# smoke-scale: the quick-size scale gate for `check` — regenerates the
# artifact in-process at 4k proxies / 20k devices and asserts the same
# schema, determinism, and alloc/throughput claims.
smoke-scale:
	$(GO) test -run TestScaleArtifact ./internal/experiments/
	$(GO) test -run xxx -bench 'BenchmarkSimnet(Send|Timer)$$' -benchtime 100x .

# bench-vessel: the full-size content-addressed PackageVessel run — a
# 2 GB package to a 10k-agent swarm against the §5 four-minute claim, the
# v1→v2 delta publish, and the crash-resume scenario, each fingerprinted
# for same-seed determinism — leaves BENCH_vessel.json in the repo root,
# then asserts the artifact gates at quick size. Minutes of wall clock;
# `check` runs the quick smoke-vessel variant instead.
bench-vessel:
	$(GO) run ./cmd/benchreport -only vessel -o - > /dev/null
	$(GO) test -run TestVesselArtifact ./internal/experiments/

# smoke-vessel: the quick-size vessel gate for `check` — regenerates the
# artifact in-process at 800 agents and asserts the same schema, delivery,
# dedup, resume, and determinism claims.
smoke-vessel:
	$(GO) test -run TestVesselArtifact ./internal/experiments/

# bench-compile: the shared-.cinc fan-out benchmarks behind BENCH_compile.json.
bench-compile:
	$(GO) test -run xxx -bench 'BenchmarkCDLCompileFanout|BenchmarkCDLCompileAllWorkers|BenchmarkEngine_CompileCache' -benchmem -benchtime 20x .

report:
	$(GO) run ./cmd/benchreport
