# Developer entry points; CI runs the same gates (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fmt check loc allocs paper ab lrc-scale sweep-faults sweep-serve sweep-serve-scale sweep-scale

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

# Heap allocations per operation from the benchmark's probe suite: one
# traced serve_read run (~7 s on two cores), then the seven *_allocs* rows
# (per Call, page miss, lock acquire, barrier episode and diff flush); then
# host_mallocs_k end to end from one untraced 1-second seed-1 run each of
# serve_read (the fetch path) and serve_write (the write-notice path), ~4 s
# apiece. Report-only, like loc.
allocs:
	@out=$$(bash benchmark/run.sh --workload serve_read --seed 1 --seconds 1 --trace 1) && \
		printf '%s\n' "$$out" | grep -E '^ +[a-z0-9_.]+_allocs' && \
		for w in serve_read serve_write; do \
			out=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) && \
			printf '%s\n' "$$out" | awk -v w=$$w '$$1 == "host_mallocs_k" { printf "  %-33s%s %s\n", w ".host_mallocs_k", $$2, $$3 }' || exit 1; \
		done

# Regenerate every paper table and figure at paper size (~90 s on two
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
# one svmrun build, with the ratio to the previous size: ROADMAP item 5's
# homeless-scaling row in one command. Report-only (the 64-node run takes
# seconds); no CI job runs it.
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

# Serving at scale: the fast-path ablation ladder on 64 -> 1024 nodes
# under modern (kernel-bypass) costs, with the parallel kernel carrying
# each run. Home hot-spot skew (max/mean serviced messages) is the
# per-cell Skew column.
sweep-serve-scale:
	$(GO) run ./cmd/svmserve -procs 64,256,1024 -costs modern -run-workers 8 \
		-loads 200000,800000 -protocols hlrc,ohlrc -ablation all -q

# Strong-scaling curves 64 -> 1024 nodes on the paper's SOR grid:
# speedup, traffic split, home hot-spot skew, and protocol memory per
# protocol, with the grid also written as JSON.
sweep-scale:
	mkdir -p out
	$(GO) run ./cmd/svmbench -scale -size paper -scale-json out/scale.json
