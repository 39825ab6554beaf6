# Developer entry points; CI runs the same gates (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fmt check loc cover cover-paper allocs paper ab lrc-scale sweep-faults sweep-serve sweep-serve-scale sweep-scale

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet .

# fmt fails if any file needs reformatting (same gate as CI).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

check: fmt vet build test

# Non-test Go lines per package, then the total outside benchmark/ by the
# command ROADMAP's re-anchor uses, so every simplicity PR reports the
# same number (.bench_build/ is skipped too: scripts/ab.sh exports a
# whole base tree into it).
LOC_FILES = find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*'
loc:
	@$(LOC_FILES) | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1 } \
			END { for (d in n) printf "%6d  %s\n", n[d], d }' | sort -k2
	@printf '%6d  total\n' "$$($(LOC_FILES) | xargs cat | wc -l)"

# The production functions of the simulator's packages that `go test ./...`
# leaves below 100 % statement coverage, each with its percentage, then the
# total: one -coverpkg run of the whole suite, so a package's statements
# count as covered when any package's tests reach them. Report-only, like
# loc; a branch no test reaches is either a test to write or a path to
# delete.
COVER_PKGS = gosvm/internal/core,gosvm/internal/fault,gosvm/internal/mem,gosvm/internal/paragon,gosvm/internal/serve,gosvm/internal/sim,gosvm/internal/slab,gosvm/internal/stats,gosvm/internal/trace,gosvm/internal/vc
cover:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		if ! $(GO) test -count=1 -coverpkg=$(COVER_PKGS) -coverprofile="$$tmp/cover.out" ./... > "$$tmp/test.log" 2>&1; then \
			cat "$$tmp/test.log" >&2; exit 1; fi && \
		$(GO) tool cover -func="$$tmp/cover.out" | awk '$$NF != "100.0%"'

# make cover's report over the union of two runs: the suite, and an
# instrumented svmbench regenerating every paper table (whose output must
# still cmp equal to results_paper.txt). A function is listed only if
# neither reaches all of it; per block the higher count of the two profiles
# is kept. Report-only and outside CI (about 3 minutes on two cores). The
# -coverpkg list names the main package too: without it the binary writes
# no coverage data.
cover-paper:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		if ! $(GO) test -count=1 -coverpkg=$(COVER_PKGS) -coverprofile="$$tmp/test.out" ./... > "$$tmp/test.log" 2>&1; then \
			cat "$$tmp/test.log" >&2; exit 1; fi && \
		$(GO) build -cover -coverpkg=$(COVER_PKGS),gosvm/cmd/svmbench -o "$$tmp/svmbench" ./cmd/svmbench && \
		mkdir "$$tmp/covdata" && \
		GOCOVERDIR="$$tmp/covdata" "$$tmp/svmbench" -all -size paper -q > "$$tmp/paper.txt" && \
		cmp "$$tmp/paper.txt" results_paper.txt && \
		$(GO) tool covdata textfmt -pkg=$(COVER_PKGS) -i="$$tmp/covdata" -o "$$tmp/paper.out" && \
		awk 'FNR == 1 { mode = $$0; next } { k = $$1 " " $$2; if (!(k in n) || $$3 > n[k]) n[k] = $$3 } \
			END { print mode; for (k in n) print k, n[k] }' "$$tmp/test.out" "$$tmp/paper.out" > "$$tmp/union.out" && \
		$(GO) tool cover -func="$$tmp/union.out" | awk '$$NF != "100.0%"'

# Heap allocations per operation from the benchmark's probe suite: one
# traced serve_read run (~7 s on two cores), then the seven *_allocs* rows
# (per Call, page miss, lock acquire, barrier episode and diff flush); then
# host_mallocs_k end to end from one untraced 1-second seed-1 run each of
# serve_read (the fetch path), serve_write (the write-notice path and HLRC's
# diff flushes), home_batch (the home-based protocols' page fetches and
# diff flushes on the paper's apps), homeless_batch (the homeless
# protocols' diff and page fetches, locks and barriers) and fault_matrix
# (every message through the reliable transport), ~4 s apiece, ~30 s in
# all; then the host bytes a write notice costs a node that never touches
# the page, per protocol at 8 and 96 nodes (TestNoticeOnlyPageBytes, which
# holds them to 8). Report-only, like loc; the per-exchange ceilings are
# TestExchangeAllocs in internal/core.
allocs:
	@out=$$(bash benchmark/run.sh --workload serve_read --seed 1 --seconds 1 --trace 1) && \
		printf '%s\n' "$$out" | grep -E '^ +[a-z0-9_.]+_allocs' && \
		for w in serve_read serve_write home_batch homeless_batch fault_matrix; do \
			out=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) && \
			printf '%s\n' "$$out" | awk -v w=$$w '$$1 == "host_mallocs_k" { printf "  %-33s%s %s\n", w ".host_mallocs_k", $$2, $$3 }' || exit 1; \
		done && \
		$(GO) test -count=1 -run TestNoticeOnlyPageBytes -v ./internal/core | grep 'bytes per'

# Regenerate every paper table and figure at paper size (~50 s on two
# cores) and require the output to be byte-identical to the checked-in
# results_paper.txt; CI's e2e job runs this. A PR that moves simulated
# results (label changes-sim) regenerates the file in the same PR:
#   go run ./cmd/svmbench -all -size paper -q > results_paper.txt
paper:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
		$(GO) run ./cmd/svmbench -all -size paper -q > "$$tmp" && \
		cmp "$$tmp" results_paper.txt

# A/B the repository benchmark: git ref BASE against this checkout on
# WORKLOAD (one name, a comma-separated list, or `all`), PAIRS alternating
# pairs over seeds 1-4 each, with the gain / WORSE / unresolved verdict per
# end-to-end metric and one workload x metric table at the end; fails on a
# WORSE or a sim_digest mismatch (scripts/ab.sh). `make ab BASE=HEAD~
# WORKLOAD=all PAIRS=4` is "the other workloads did not move" in one command.
BASE ?= HEAD
WORKLOAD ?= serve_read
PAIRS ?= 10
ab:
	bash scripts/ab.sh $(BASE) $(WORKLOAD) $(PAIRS)

# Host wall time of paper-size water-sp under LRC at 16, 32 and 64 nodes,
# one svmrun build, with the ratio to the previous size: how the homeless
# miss path scales (DESIGN §9 "The homeless miss path"). Report-only (the
# 64-node run takes seconds); no CI job runs it.
lrc-scale:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) build -o "$$tmp/svmrun" ./cmd/svmrun && \
		prev= && for p in 16 32 64; do \
			t0=$$(date +%s.%N) && \
			"$$tmp/svmrun" -app water-sp -proto lrc -procs $$p -size paper -noseq > /dev/null && \
			t=$$(awk -v a=$$t0 -v b=$$(date +%s.%N) 'BEGIN { printf "%.2f", b - a }') && \
			awk -v p=$$p -v t=$$t -v prev=$$prev 'BEGIN { \
				printf "water-sp/lrc %2d nodes %7.2f s", p, t; \
				if (prev != "") printf "   %.2fx per doubling", t / prev; print "" }' && \
			prev=$$t || exit 1; \
		done

# The Table-2 speedup grid under every fault profile, with per-cell JSON
# statistics. Crash cells run all four protocols; a crashed node keeps its
# state and every request to it waits out the restart.
sweep-faults:
	$(GO) run ./cmd/svmbench -faults lossy,hostile,crash -size small -json-dir out/faults

# Open-loop KV serving: offered load x protocol x machine size with tail
# latency, saturation detection, and per-cell JSON latency histograms.
sweep-serve:
	$(GO) run ./cmd/svmserve -loads 500,1000,2000,4000 -procs 4,8 -json-dir out/serve

# Serving at scale: the striped, seqlock-read store on 64 -> 1024 nodes
# under modern (kernel-bypass) costs. Home hot-spot skew (max/mean
# serviced messages) is the per-cell Skew column; SeqRd and Fallbk count
# the lock-free reads and the ones that fell back to the lock.
sweep-serve-scale:
	$(GO) run ./cmd/svmserve -procs 64,256,1024 -costs modern \
		-loads 200000,800000 -protocols hlrc,ohlrc -q

# Strong-scaling curves 64 -> 1024 nodes on the paper's SOR grid:
# speedup, traffic split, home hot-spot skew, and protocol memory per
# protocol, with the grid also written as JSON.
sweep-scale:
	mkdir -p out
	$(GO) run ./cmd/svmbench -scale -size paper -scale-json out/scale.json
