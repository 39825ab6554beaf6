package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/paragon"
)

// TestMain runs every sweep test with the object-lifetime checks on
// (mem.CheckFrames): a write through a shared frame, an answer written into
// the body of a Call that no longer waits, or a home applying a recycled
// diff record panics in the run that did it.
func TestMain(m *testing.M) {
	mem.CheckFrames = true
	os.Exit(m.Run())
}

func testRunner() *Runner {
	r := NewRunner(apps.SizeTest)
	r.PageBytes = 1024
	r.Procs = []int{2, 4}
	return r
}

func TestRunnerMemoization(t *testing.T) {
	r := testRunner()
	a := r.Run("sor", core.ProtoHLRC, 4)
	b := r.Run("sor", core.ProtoHLRC, 4)
	if a != b {
		t.Fatal("identical runs not memoized")
	}
	c := r.Run("sor", core.ProtoLRC, 4)
	if a == c {
		t.Fatal("different protocols share a cache entry")
	}
}

func TestRunnerSeqIgnoresProcs(t *testing.T) {
	r := testRunner()
	a := r.Run("sor", core.ProtoSeq, 4)
	b := r.Seq("sor")
	if a != b {
		t.Fatal("seq runs with different proc counts not unified")
	}
}

func TestSpeedupPositive(t *testing.T) {
	r := testRunner()
	s := r.Speedup("sor", core.ProtoHLRC, 4)
	if s <= 0 {
		t.Fatalf("speedup = %v", s)
	}
}

func TestTable2DataShape(t *testing.T) {
	r := testRunner()
	rows := r.Table2Data()
	if len(rows) != len(AppNames()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		for _, p := range r.Procs {
			for _, proto := range core.Protocols {
				if row.Speedups[p][proto] <= 0 {
					t.Fatalf("%s/%s/p%d speedup missing", row.App, proto, p)
				}
			}
		}
	}
}

func TestTable4DataHomeEffect(t *testing.T) {
	r := testRunner()
	// One 8x8 test-size LU block per 512-byte page, so block owners are
	// page homes — the alignment the paper-size configuration has.
	r.PageBytes = 512
	rows := r.Table4Data()
	for _, row := range rows {
		if row.App == "lu" && row.Proto == core.ProtoHLRC && row.Counts.DiffsCreated != 0 {
			t.Fatalf("LU under HLRC created %d diffs (home effect broken)", row.Counts.DiffsCreated)
		}
	}
}

func TestTable5DataNonEmpty(t *testing.T) {
	r := testRunner()
	for _, row := range r.Table5Data(4) {
		if row.Msgs == 0 {
			t.Fatalf("%s/%s sent no messages", row.App, row.Proto)
		}
	}
}

func TestTable6HLRCBelowLRC(t *testing.T) {
	r := testRunner()
	rows := r.Table6Data()
	for i := 0; i < len(rows); i += 2 {
		lrc, hlrc := rows[i], rows[i+1]
		if lrc.App == "raytrace" {
			continue // tiny scene: fixed per-page vectors dominate both
		}
		if hlrc.ProtoPeakMB > lrc.ProtoPeakMB {
			t.Errorf("%s p%d: HLRC proto mem %.3f above LRC %.3f",
				lrc.App, lrc.Procs, hlrc.ProtoPeakMB, lrc.ProtoPeakMB)
		}
	}
}

func TestFig3BreakdownsSumToTotal(t *testing.T) {
	r := testRunner()
	for _, row := range r.Fig3Data() {
		sum := row.Compute + row.Data + row.GC + row.Lock + row.Barrier + row.Protocol
		if sum != row.Total {
			t.Fatalf("%s/%s/p%d breakdown sum %v != total %v", row.App, row.Proto, row.Procs, sum, row.Total)
		}
	}
}

func TestFig4DataPresent(t *testing.T) {
	r := testRunner()
	rows := r.Fig4Data()
	if len(rows) != 2*(8+32) {
		t.Fatalf("fig4 rows = %d, want %d", len(rows), 2*(8+32))
	}
	var activity float64
	for _, row := range rows {
		activity += row.Compute + row.Data + row.Lock + row.Protocol
	}
	if activity == 0 {
		t.Fatal("fig4 captured an empty phase")
	}
}

func TestSORZeroDirection(t *testing.T) {
	r := testRunner()
	lrc, hlrc, _ := r.SORZeroData(4)
	if lrc <= 0 || hlrc <= 0 {
		t.Fatal("sor-zero runs missing")
	}
}

func TestTableFormattingSmoke(t *testing.T) {
	r := testRunner()
	var buf bytes.Buffer
	r.Table1(&buf)
	r.Table2(&buf)
	Table3For(&buf, 1024, paragon.DefaultCosts())
	r.Table4(&buf)
	r.Table5(&buf)
	r.Table6(&buf)
	r.Fig3(&buf)
	r.SORZero(&buf)
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6", "Figure 3", "§4.8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	for _, app := range AppNames() {
		if !strings.Contains(out, app) {
			t.Fatalf("output missing app %q", app)
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	r := testRunner()
	var buf bytes.Buffer
	r.Ablations(&buf)
	for _, want := range []string{"home placement", "interrupt cost", "page size", "GC threshold", "network model"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}

// TestTreatmentArmsFollowRunnerMachine pins the one-machine rule: the
// Runner's machine shape reaches the treatment arm of every comparison
// (uncached runs with an ablation knob, a fault plan, or phase capture),
// not only the memoized control arm.
func TestTreatmentArmsFollowRunnerMachine(t *testing.T) {
	lossy, err := fault.Profile(fault.ProfileLossy, 1)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := func(res *core.Result, err error) float64 {
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Stats.Elapsed)
	}
	cases := []struct {
		name      string
		treatment func(r *Runner) float64 // simulated time of the treatment arm
	}{
		{"round-robin homes", func(r *Runner) float64 {
			_, rr := r.AblationHomePlacement(io.Discard, "sor", 4)
			return float64(rr)
		}},
		{"faulted cell", func(r *Runner) float64 {
			return elapsed(r.execApp("sor", r.faultOpts(core.ProtoHLRC, 4, lossy), "faulted"))
		}},
		{"figure 4 rows", func(r *Runner) float64 {
			var sum float64
			for _, row := range r.Fig4Data() {
				sum += row.Compute + row.Data + row.Lock + row.Protocol
			}
			return sum
		}},
	}
	for _, c := range cases {
		modern := testRunner()
		modern.Machine.Costs = paragon.ModernCosts()
		if def, got := c.treatment(testRunner()), c.treatment(modern); got == def {
			t.Errorf("%s: treatment arm takes %v under both Paragon and modern costs", c.name, def)
		}
	}
}

func TestFaultSweepSmoke(t *testing.T) {
	r := testRunner()
	r.Procs = []int{4}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := r.FaultSweep(&buf, []string{"lossy", "crash"}, 3, dir); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`fault profile "lossy"`, `fault profile "crash"`, "wait out its restart"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	// One JSON file per cell: 4 protocols for each profile.
	files, err := filepath.Glob(filepath.Join(dir, "fault-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(AppNames()) * (4 + 4); len(files) != want {
		t.Fatalf("wrote %d JSON cells, want %d", len(files), want)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("cell %s is not valid JSON: %v", files[0], err)
	}
	if doc["protocol"] == "" || doc["elapsed_ns"] == nil {
		t.Fatalf("cell JSON missing core fields: %v", doc)
	}
}

// A faulted cell whose result differs from the sequential run fails the
// sweep and names the cell: with one bit of the memoized sor baseline
// flipped, no sor cell may pass.
func TestFaultSweepValidatesCells(t *testing.T) {
	r := testRunner()
	r.Procs = []int{4}
	seq := r.Seq("sor").Data
	i := len(seq) / 2
	seq[i] = math.Float64frombits(math.Float64bits(seq[i]) ^ 1)
	err := r.FaultSweep(io.Discard, []string{"lossy"}, 1, "")
	if err == nil || !strings.Contains(err.Error(), "sor/") {
		t.Fatalf("FaultSweep over a corrupted sor baseline returned %v, want an error naming a sor/ cell", err)
	}
}

// Under a tolerance a NaN word fails, however the comparison is phrased.
func TestValidateResultRejectsNaN(t *testing.T) {
	want := []float64{1, 2}
	if err := validateResult(want, []float64{1, math.NaN()}, 1e-9); err == nil {
		t.Fatal("a NaN word passed the tolerance check")
	}
	if err := validateResult(want, []float64{1, 2 + 1e-12}, 1e-9); err != nil {
		t.Fatalf("a word within tolerance failed: %v", err)
	}
}
