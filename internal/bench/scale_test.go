package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gosvm/internal/apps"
	"gosvm/internal/core"
)

func smallScale() ScaleOpts {
	return ScaleOpts{
		Nodes:  []int{16, 32},
		Protos: []core.Protocol{core.ProtoLRC, core.ProtoHLRC},
		H:      64, W: 32, Iters: 2,
	}
}

func TestScaleSweepDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		r := NewRunner(apps.SizeTest)
		if err := r.ScaleSweep(&buf, smallScale(), ""); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("scale sweep not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"lrc", "hlrc", "16", "32", "Speedup", "Skew"} {
		if !strings.Contains(a, want) {
			t.Fatalf("output missing %q:\n%s", want, a)
		}
	}
}

func TestScaleSweepJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scale.json")
	r := NewRunner(apps.SizeTest)
	if err := r.ScaleSweep(&bytes.Buffer{}, smallScale(), path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e ScaleEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "scale" || e.H != 64 || len(e.Cells) != 4 {
		t.Fatalf("bad scale entry: kind=%q h=%d cells=%d", e.Kind, e.H, len(e.Cells))
	}
	for _, c := range e.Cells {
		if c.Speedup <= 0 || c.Msgs <= 0 {
			t.Fatalf("cell %s/p%d has no traffic: %+v", c.Protocol, c.Nodes, c)
		}
	}
}

func TestScaleSweepRejectsBadNodes(t *testing.T) {
	r := NewRunner(apps.SizeTest)
	o := smallScale()
	o.Nodes = []int{128} // > H rows
	if err := r.ScaleSweep(&bytes.Buffer{}, o, ""); err == nil {
		t.Fatal("accepted more nodes than grid rows")
	}
	o.Nodes = []int{1}
	if err := r.ScaleSweep(&bytes.Buffer{}, o, ""); err == nil {
		t.Fatal("accepted a 1-node machine")
	}
}
