package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gosvm/internal/apps"
)

// outputHash is the FNV-1a hash of a sweep's stdout followed by every
// file under dir (name, then content) in sorted name order.
func outputHash(t *testing.T, stdout []byte, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	h := fnv.New64a()
	h.Write(stdout)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, filepath.Base(name))
		h.Write(data)
	}
	return fmt.Sprintf("%d+%d:%016x", len(stdout), len(names), h.Sum64())
}

// TestSweepOutputMatchesParent pins what every sweep prints and writes,
// byte for byte, at SizeTest on 4 nodes (the scaling sweep on 16 and 32):
// the hashes were recorded at the commit before the sweeps were folded
// onto one executor, one sweep and one per-cell JSON writer (PR 23). The
// determinism tests beside this one compare Parallel 1 with Parallel 8,
// so a change that moves both sides passes them; it fails here. A
// `changes-sim` PR re-records the hashes it moves, and says so.
func TestSweepOutputMatchesParent(t *testing.T) {
	runner := func() *Runner {
		r := NewRunner(apps.SizeTest)
		r.Procs = []int{4}
		return r
	}
	cases := []struct {
		name string
		want string
		run  func(out io.Writer, dir string) error
	}{
		{"faults", "1092+60:8ab299f62051149b", func(out io.Writer, dir string) error {
			return runner().FaultSweep(out, []string{"lossy", "crash", "crash-mgr"}, 1, dir)
		}},
		{"scale", "801+1:4dda6b161edd7ed3", func(out io.Writer, dir string) error {
			var o ScaleOpts
			o.GridFor(apps.SizeTest)
			o.Nodes = []int{16, 32}
			return runner().ScaleSweep(out, o, filepath.Join(dir, "scale.json"))
		}},
		{"serve", "1289+8:0e67a753647be7eb", func(out io.Writer, dir string) error {
			return runner().ServeSweep(out, serveSweepOpts(), dir)
		}},
		{"ablations", "907+0:08957503bd5d10e0", func(out io.Writer, dir string) error {
			r := runner()
			r.Ablations(out)
			r.SORZero(out)
			return nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			dir := t.TempDir()
			if err := c.run(&out, dir); err != nil {
				t.Fatal(err)
			}
			if got := outputHash(t, out.Bytes(), dir); got != c.want {
				t.Errorf("stdout + per-cell JSON hash to %s, the parent's to %s\n%s", got, c.want, out.String())
			}
		})
	}
}
