package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/serve"
	"gosvm/internal/sim"
)

// serveSweepOpts is a small two-load sweep that brackets the capacity
// knee of the test machine sizes.
func serveSweepOpts() ServeSweepOpts {
	return ServeSweepOpts{
		Base: serve.Config{
			Keys:   256,
			Window: 20 * sim.Millisecond,
			Seed:   7,
		},
		Loads: []float64{400, 40_000},
		Seed:  7,
	}
}

func serveRunner(parallel int) *Runner {
	r := NewRunner(apps.SizeTest)
	r.Procs = []int{2, 4}
	r.Parallel = parallel
	return r
}

// TestServeSweepParallelDeterminism renders the serving sweep
// sequentially and with 8 workers and requires byte-identical tables and
// byte-identical per-cell JSON: host parallelism must be invisible.
func TestServeSweepParallelDeterminism(t *testing.T) {
	d1, d8 := t.TempDir(), t.TempDir()

	var t1, t8 bytes.Buffer
	if err := serveRunner(1).ServeSweep(&t1, serveSweepOpts(), d1); err != nil {
		t.Fatal(err)
	}
	if err := serveRunner(8).ServeSweep(&t8, serveSweepOpts(), d8); err != nil {
		t.Fatal(err)
	}
	if t1.String() != t8.String() {
		t.Errorf("serve sweep table differs between -parallel 1 and -parallel 8:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s",
			t1.String(), t8.String())
	}

	names, err := filepath.Glob(filepath.Join(d1, "serve-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("sweep wrote no per-cell JSON")
	}
	for _, p1 := range names {
		name := filepath.Base(p1)
		b1, err := os.ReadFile(p1)
		if err != nil {
			t.Fatal(err)
		}
		b8, err := os.ReadFile(filepath.Join(d8, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b8) {
			t.Errorf("%s: per-cell JSON differs between -parallel 1 and -parallel 8", name)
		}
		if !bytes.Contains(b1, []byte(`"serve"`)) || !bytes.Contains(b1, []byte(`"latency"`)) {
			t.Errorf("%s: JSON missing serve/latency blocks", name)
		}
	}
}

// TestServeSweepSaturationColumns: the rendered table must flag every
// overload cell and no light-load cell.
func TestServeSweepSaturationColumns(t *testing.T) {
	var buf bytes.Buffer
	if err := serveRunner(0).ServeSweep(&buf, serveSweepOpts(), ""); err != nil {
		t.Fatal(err)
	}
	var lightSat, heavyUnsat int
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "400":
			if strings.Contains(line, "SATURATED") {
				lightSat++
			}
		case "40000":
			if !strings.Contains(line, "SATURATED") {
				heavyUnsat++
			}
		}
	}
	if lightSat > 0 {
		t.Errorf("%d light-load cells flagged SATURATED", lightSat)
	}
	if heavyUnsat > 0 {
		t.Errorf("%d overload cells not flagged SATURATED", heavyUnsat)
	}
}

// TestServeSweepCrashProfile: composing the crash profile keeps all four
// protocol columns and reports the retransmission columns.
func TestServeSweepCrashProfile(t *testing.T) {
	o := serveSweepOpts()
	o.Loads = []float64{400}
	o.Profile = "crash"
	o.Base.Window = 40 * sim.Millisecond // span the crash and revival
	r := serveRunner(0)
	r.Procs = []int{4}
	var buf bytes.Buffer
	if err := r.ServeSweep(&buf, o, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"Recovery(ms)", "Retries"} {
		if !strings.Contains(out, col) {
			t.Errorf("crash sweep table missing %q column:\n%s", col, out)
		}
	}
	for _, proto := range core.Protocols {
		if !strings.Contains(out, " "+string(proto)+" ") {
			t.Errorf("crash sweep has no %s row:\n%s", proto, out)
		}
	}
}

// TestServeSweepRejectsEmptyLoads guards the sweep's input validation.
func TestServeSweepRejectsEmptyLoads(t *testing.T) {
	o := serveSweepOpts()
	o.Loads = nil
	if err := serveRunner(0).ServeSweep(&bytes.Buffer{}, o, ""); err == nil {
		t.Error("ServeSweep accepted an empty load axis")
	}
}
