package apps

import (
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
		}
	}
}
