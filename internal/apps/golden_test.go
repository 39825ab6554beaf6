package apps

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"gosvm/internal/core"
)

// resultHash is the FNV-1a hash of a result image's bit patterns.
func resultHash(data []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range data {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%d:%016x", len(data), h.Sum64())
}

// goldenResults are the Result.Data hashes of every application at
// SizeTest, recorded at the commit before page frames began to change
// hands (PR 20: fetched snapshots are adopted, the seed image is the
// homes' first copy). The sequential run has one node; the rest have 4.
// Any host-representation change that lets one byte of shared memory
// alias, go stale or arrive zeroed shows here, under every protocol.
var goldenResults = map[string]string{
	"sor-zero/seq":    "512:c835eaff7536d85f",
	"sor-zero/lrc":    "512:c835eaff7536d85f",
	"sor-zero/olrc":   "512:c835eaff7536d85f",
	"sor-zero/hlrc":   "512:c835eaff7536d85f",
	"sor-zero/ohlrc":  "512:c835eaff7536d85f",
	"lu/seq":          "2304:59d081fdbc6576c7",
	"lu/lrc":          "2304:59d081fdbc6576c7",
	"lu/olrc":         "2304:59d081fdbc6576c7",
	"lu/hlrc":         "2304:59d081fdbc6576c7",
	"lu/ohlrc":        "2304:59d081fdbc6576c7",
	"sor/seq":         "512:c8139af551ac78fd",
	"sor/lrc":         "512:c8139af551ac78fd",
	"sor/olrc":        "512:c8139af551ac78fd",
	"sor/hlrc":        "512:c8139af551ac78fd",
	"sor/ohlrc":       "512:c8139af551ac78fd",
	"water-nsq/seq":   "432:34c55552b88b1e29",
	"water-nsq/lrc":   "432:a00686614e208de8",
	"water-nsq/olrc":  "432:bc56170e3721828c",
	"water-nsq/hlrc":  "432:a4378ebf3dc5f3b8",
	"water-nsq/ohlrc": "432:4e9ca65a9c8ed59c",
	"water-sp/seq":    "432:243af26d76fe636a",
	"water-sp/lrc":    "432:dca0a875a33e770e",
	"water-sp/olrc":   "432:dca0a875a33e770e",
	"water-sp/hlrc":   "432:dca0a875a33e770e",
	"water-sp/ohlrc":  "432:dca0a875a33e770e",
	"raytrace/seq":    "1024:9258f46bf7e961d6",
	"raytrace/lrc":    "1024:9258f46bf7e961d6",
	"raytrace/olrc":   "1024:9258f46bf7e961d6",
	"raytrace/hlrc":   "1024:9258f46bf7e961d6",
	"raytrace/ohlrc":  "1024:9258f46bf7e961d6",
}

func TestResultDataMatchesParent(t *testing.T) {
	protos := append([]core.Protocol{core.ProtoSeq}, core.Protocols...)
	for _, name := range append([]string{"sor-zero"}, Names...) {
		for _, proto := range protos {
			app, err := New(name, SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			var res *core.Result
			if proto == core.ProtoSeq {
				res = seqRun(t, app)
			} else {
				res = parRun(t, app, proto, 4)
			}
			key := name + "/" + string(proto)
			if got := resultHash(res.Data); got != goldenResults[key] {
				t.Errorf("%s: result image hashes to %s, the parent's to %s", key, got, goldenResults[key])
			}
			if want, ok := sorEventHashes[key+"/n4"]; ok {
				checkStatsHash(t, key+"/n4", res, want)
			}
		}
	}
}

// sorEventHashes are the FNV-1a hashes of core.Run's stats JSON for sor and
// sor-zero under every protocol at SizeTest, recorded before SOR's sweep
// began reusing the rows it already held. The stats are every simulated
// event's footprint (elapsed time, per-node category times, messages,
// bytes, faults), so a sweep that skips one read that would have faulted,
// or reorders two that do, shows here even when the result image is equal.
var sorEventHashes = map[string]string{
	"sor/lrc/n4":         "1928:7a6dea9a742d3dc0",
	"sor/lrc/n16":        "7182:25f89710010f2fcd",
	"sor/olrc/n4":        "1925:eb79d2f7e861620d",
	"sor/olrc/n16":       "7157:4971fae170584e40",
	"sor/hlrc/n4":        "1910:ce8b485a482c5188",
	"sor/hlrc/n16":       "7118:117d82e5dcf083b3",
	"sor/ohlrc/n4":       "1910:6b644289e4cce9a3",
	"sor/ohlrc/n16":      "7102:6cdc52ba45998e26",
	"sor-zero/lrc/n4":    "1933:ed5d090b7e3e7502",
	"sor-zero/lrc/n16":   "7187:24bd165a621fa1eb",
	"sor-zero/olrc/n4":   "1930:d35b29aeb0653670",
	"sor-zero/olrc/n16":  "7162:4966cffd258aa848",
	"sor-zero/hlrc/n4":   "1915:28246aa2405ce771",
	"sor-zero/hlrc/n16":  "7123:b887e91d5322d05c",
	"sor-zero/ohlrc/n4":  "1915:07fe4a6359e48565",
	"sor-zero/ohlrc/n16": "7107:572ce0d7de00af2e",
}

// TestSOREventsMatchParent pins the 16-node cells of sorEventHashes;
// TestResultDataMatchesParent checks the 4-node ones on its own runs.
func TestSOREventsMatchParent(t *testing.T) {
	for _, name := range []string{"sor", "sor-zero"} {
		for _, proto := range core.Protocols {
			app, err := New(name, SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%s/n16", name, proto)
			checkStatsHash(t, key, parRun(t, app, proto, 16), sorEventHashes[key])
		}
	}
}

// checkStatsHash reports whether res's stats JSON hashes to want.
func checkStatsHash(t *testing.T, key string, res *core.Result, want string) {
	t.Helper()
	buf, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf)
	if got := fmt.Sprintf("%d:%016x", len(buf), h.Sum64()); got != want {
		t.Errorf("%s: stats JSON hashes to %s, the parent's to %s", key, got, want)
	}
}
