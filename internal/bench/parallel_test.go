package bench

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gosvm/internal/apps"
	"gosvm/internal/core"
)

// parallelRunner returns a runner on the fast test grid.
func parallelRunner(parallel int) *Runner {
	r := NewRunner(apps.SizeTest)
	r.Procs = []int{2, 4}
	r.Parallel = parallel
	return r
}

// TestParallelDeterminism renders the Table-2 grid sequentially and with 8
// workers and requires byte-identical tables and byte-identical per-cell
// JSON statistics: parallel execution must be invisible in the output.
func TestParallelDeterminism(t *testing.T) {
	r1 := parallelRunner(1)
	r8 := parallelRunner(8)

	var t1, t8 bytes.Buffer
	r1.Table2(&t1)
	r8.Table2(&t8)
	if t1.String() != t8.String() {
		t.Errorf("Table2 differs between -parallel 1 and -parallel 8:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", t1.String(), t8.String())
	}

	for _, app := range AppNames() {
		for _, procs := range r1.Procs {
			for _, proto := range core.Protocols {
				var j1, j8 bytes.Buffer
				if err := r1.Run(app, proto, procs).Stats.WriteJSON(&j1); err != nil {
					t.Fatal(err)
				}
				if err := r8.Run(app, proto, procs).Stats.WriteJSON(&j8); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(j1.Bytes(), j8.Bytes()) {
					t.Errorf("%s/%s/p%d: per-cell JSON differs between -parallel 1 and -parallel 8", app, proto, procs)
				}
			}
		}
	}
}

// TestConcurrentRun hammers the memo cache from many goroutines: every
// caller of the same cell must get the same *Result (one simulation per
// cell), with no race (run under -race in CI).
func TestConcurrentRun(t *testing.T) {
	r := parallelRunner(4)
	cells := []cell{
		{"sor", core.ProtoHLRC, 2},
		{"sor", core.ProtoHLRC, 4},
		{"lu", core.ProtoLRC, 2},
	}
	const callers = 8
	results := make([][]*core.Result, len(cells))
	for i := range results {
		results[i] = make([]*core.Result, callers)
	}
	var wg sync.WaitGroup
	for ci, c := range cells {
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(ci, g int, c cell) {
				defer wg.Done()
				results[ci][g] = r.Run(c.app, c.proto, c.procs)
			}(ci, g, c)
		}
	}
	wg.Wait()
	for ci, rs := range results {
		for g := 1; g < callers; g++ {
			if rs[g] != rs[0] {
				t.Errorf("cell %d: caller %d got a different *Result than caller 0 — cell simulated more than once", ci, g)
			}
		}
	}
}

// TestForEachPanic checks that a worker panic is re-raised on the caller
// after all workers finish, matching sequential error behavior.
func TestForEachPanic(t *testing.T) {
	r := parallelRunner(4)
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("forEach swallowed the worker panic")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic value %v", v)
		}
	}()
	r.forEach(6, func(i int) {
		if i == 3 {
			panic("boom 3")
		}
	})
}

// TestFaultSweepDeterminism repeats the determinism check for the fault
// sweep, whose cells are uncached and share one fault plan.
func TestFaultSweepDeterminism(t *testing.T) {
	var s1, s8 bytes.Buffer
	if err := parallelRunner(1).FaultSweep(&s1, []string{"lossy"}, 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := parallelRunner(8).FaultSweep(&s8, []string{"lossy"}, 1, ""); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s8.String() {
		t.Errorf("fault sweep differs between -parallel 1 and -parallel 8:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", s1.String(), s8.String())
	}
}

// TestSweepFirstErrorInCellOrder: a failing cell's error names the cell
// (exec's label), and when two cells fail, sweep returns the earlier one
// in cell order at any parallelism — at Parallel 8 the earlier failing
// cell is held back until the later one has already failed.
func TestSweepFirstErrorInCellOrder(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		r := parallelRunner(parallel)
		cells := grid([]string{"sor"}, r.Procs, core.Protocols)
		first, second := cells[2], cells[5]
		secondFailed := make(chan struct{})
		results, err := sweep(r, cells, func(c cell) (*core.Result, error) {
			opts := r.cellOpts(c.proto, c.procs)
			switch c {
			case first:
				if parallel > 1 {
					<-secondFailed
				}
				opts.Recovery.Replicas = -1 // core.Run rejects it
			case second:
				defer close(secondFailed)
				opts.Recovery.Replicas = -1
			}
			return r.execApp(c.app, opts, "")
		})
		if err == nil || results != nil {
			t.Fatalf("parallel %d: sweep returned (%v, %v) with two failing cells", parallel, results, err)
		}
		want := fmt.Sprintf("bench: %s/%s/p%d: ", first.app, first.proto, first.procs)
		if !strings.HasPrefix(err.Error(), want) {
			t.Errorf("parallel %d: error %q does not start with the first failing cell's label %q", parallel, err, want)
		}
	}
}
