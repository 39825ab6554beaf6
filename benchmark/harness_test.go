package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at the tiny scale through the command-line
// entry point and decodes its last line.
func runTiny(t *testing.T, workload string, trace string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace,
		"--scale", "tiny", "--trace-out", filepath.Join(t.TempDir(), "spans.json")}
	start := time.Now()
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, stderr.String())
	}
	if d := time.Since(start); d > 2*time.Second && trace == "0" {
		t.Errorf("%s: tiny run took %v, want under 2 s", workload, d)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	return res, stdout.String()
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// TestMetricNames checks that every workload emits exactly the metrics
// BENCHMARK.json declares, untraced and traced, with the declared units.
func TestMetricNames(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			res, out := runTiny(t, w.name, trace)
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if want := names(defs); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%s: metrics\n got %v\nwant %v", w.name, trace, got, want)
			}
			for _, d := range defs {
				if u := res.Metrics[d.name].Unit; u != d.unit {
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.name, u, d.unit)
				}
				if trace == "0" && res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, res.Metrics[d.name].Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if !strings.Contains(out, "\nsim_digest ") {
				t.Errorf("%s: no sim_digest line", w.name)
			}
		}
	}
}

// TestManifest checks BENCHMARK.json against the harness's own tables
// and the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", d.name, d.unit)
		}
		seen[d.name] = true
		if d.better != lower && d.better != higher {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
		if d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", d.name, d.bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q: bad name or why", w.name)
		}
		seen[w.name] = true
	}
}

// TestCorruptedResultFails checks that the output check is live: one
// flipped word of a batch result, or of a served store, is a failure.
func TestCorruptedResultFails(t *testing.T) {
	for _, name := range []string{"home_batch", "serve_write"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := w.specs(scaleTiny, 7)
		if err != nil {
			t.Fatal(err)
		}
		baselines, _, err := setUp(specs, newScaler(), nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := prepare(specs)
		if err != nil {
			t.Fatal(err)
		}
		c := &cells[0]
		res, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		base := baselines[c.spec.ref]
		if attempted, failed, err := c.check(res, nil, base); failed != 0 || attempted < 1 || err != nil {
			t.Fatalf("%s: clean result: attempted %d failed %d err %v", name, attempted, failed, err)
		}
		res.Data[len(res.Data)/2]++
		attempted, failed, err := c.check(res, nil, base)
		if failed == 0 || err == nil {
			t.Errorf("%s: corrupted result passed the check (attempted %d)", name, attempted)
		}
		if name == "serve_write" && failed != attempted {
			t.Errorf("%s: a wrong store must fail every request of the rung: %d of %d", name, failed, attempted)
		}
	}
}

// TestScaleParallelNeedsTwoProcs checks that the parallel-kernel
// workload refuses to measure on a single P.
func TestScaleParallelNeedsTwoProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "scale_parallel", "--scale", "tiny", "--seconds", "0"}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("scale_parallel ran at GOMAXPROCS 1 (exit %d, %d bytes of output)", code, stdout.Len())
	}
	if !strings.Contains(stderr.String(), "GOMAXPROCS") {
		t.Errorf("refusal does not say why: %q", stderr.String())
	}
}

// TestDigestIsSeedAndRunStable checks the determinism the A/A check
// relies on: same seed, same digest; another seed, another digest on a
// workload whose inputs are seeded.
func TestDigestIsSeedAndRunStable(t *testing.T) {
	digest := func(workload string, seed int64) string {
		rep, err := execute(config{workload: workload, seed: seed, scale: scaleTiny})
		if err != nil {
			t.Fatal(err)
		}
		if rep.drifted != 0 {
			t.Errorf("%s: %d passes drifted from the first", workload, rep.drifted)
		}
		return rep.totals.digest()
	}
	if a, b := digest("serve_read", 3), digest("serve_read", 3); a != b {
		t.Errorf("serve_read seed 3: digests %s and %s differ", a, b)
	}
	if a, b := digest("serve_read", 3), digest("serve_read", 4); a == b {
		t.Errorf("serve_read: seeds 3 and 4 share digest %s", a)
	}
	if a, b := digest("fault_matrix", 3), digest("fault_matrix", 4); a == b {
		t.Errorf("fault_matrix: seeds 3 and 4 share digest %s", a)
	}
}
