// Benchmarks regenerating the paper's evaluation, one per table and
// figure. They run at reduced problem size so `go test -bench=.` finishes
// quickly; the full paper-size reproduction is `go run ./cmd/svmbench
// -all -size paper` (see EXPERIMENTS.md for recorded results).
//
// Each benchmark reports the reproduced quantities as custom metrics, so
// the protocol comparison is visible directly in the benchmark output.
package gosvm_test

import (
	"fmt"
	"io"
	"testing"

	"gosvm"
	"gosvm/internal/apps"
	"gosvm/internal/bench"
	"gosvm/internal/core"
	"gosvm/internal/stats"
)

// benchRunner returns a fresh runner at test scale with small machines.
func benchRunner() *bench.Runner {
	r := bench.NewRunner(apps.SizeTest)
	r.PageBytes = 1024
	r.Procs = []int{4, 8}
	return r
}

// BenchmarkTable1_Sequential measures the sequential baselines.
func BenchmarkTable1_Sequential(b *testing.B) {
	for _, app := range bench.AppNames() {
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := benchRunner()
				seq := r.Seq(app)
				b.ReportMetric(seq.Stats.Elapsed.Micros()/1e6, "sim-sec")
			}
		})
	}
}

// BenchmarkTable2_Speedups reproduces the speedup comparison: four
// protocols per application and machine size.
func BenchmarkTable2_Speedups(b *testing.B) {
	for _, app := range bench.AppNames() {
		for _, procs := range []int{4, 8} {
			for _, proto := range gosvm.Protocols {
				b.Run(fmt.Sprintf("%s/%s/p%d", app, proto, procs), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						r := benchRunner()
						b.ReportMetric(r.Speedup(app, proto, procs), "speedup")
					}
				})
			}
		}
	}
}

// BenchmarkTable3_BasicOps exercises the basic-operation cost model and
// the derived §4.3 latencies on the machine model.
func BenchmarkTable3_BasicOps(b *testing.B) {
	c := gosvm.DefaultCosts()
	for i := 0; i < b.N; i++ {
		bench.Table3For(io.Discard, 8192, c)
	}
	b.ReportMetric((c.PageFault + c.Wire(4) + c.ReceiveInterrupt + c.Wire(8192)).Micros(), "hlrc-miss-us")
	b.ReportMetric((c.PageFault + c.Wire(4) + c.Wire(8192)).Micros(), "ohlrc-miss-us")
}

// BenchmarkTable4_Operations reproduces the per-node operation counts
// (read misses, diffs) for LRC vs HLRC.
func BenchmarkTable4_Operations(b *testing.B) {
	for _, app := range bench.AppNames() {
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := benchRunner()
				lrc := r.Run(app, gosvm.LRC, 8).Stats.AvgNode().Counts
				hlrc := r.Run(app, gosvm.HLRC, 8).Stats.AvgNode().Counts
				b.ReportMetric(float64(lrc.ReadMisses), "lrc-misses")
				b.ReportMetric(float64(hlrc.ReadMisses), "hlrc-misses")
				b.ReportMetric(float64(lrc.DiffsCreated), "lrc-diffs")
				b.ReportMetric(float64(hlrc.DiffsCreated), "hlrc-diffs")
			}
		})
	}
}

// BenchmarkTable5_Traffic reproduces the communication traffic comparison.
func BenchmarkTable5_Traffic(b *testing.B) {
	for _, app := range bench.AppNames() {
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := benchRunner()
				for _, proto := range []gosvm.Protocol{gosvm.LRC, gosvm.HLRC} {
					res := r.Run(app, proto, 8)
					b.ReportMetric(float64(res.Stats.TotalMsgs()), proto.String()+"-msgs")
					b.ReportMetric(float64(res.Stats.TotalBytes(stats.ClassData))/(1<<20), proto.String()+"-dataMB")
					b.ReportMetric(float64(res.Stats.TotalBytes(stats.ClassProtocol))/(1<<20), proto.String()+"-protoMB")
				}
			}
		})
	}
}

// BenchmarkTable6_Memory reproduces the protocol memory comparison.
func BenchmarkTable6_Memory(b *testing.B) {
	for _, app := range bench.AppNames() {
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := benchRunner()
				for _, proto := range []gosvm.Protocol{gosvm.LRC, gosvm.HLRC} {
					res := r.Run(app, proto, 8)
					b.ReportMetric(float64(res.Stats.PeakProtoMem())/1024, proto.String()+"-protoKB")
				}
			}
		})
	}
}

// BenchmarkFig3_Breakdowns reproduces the execution-time breakdowns.
func BenchmarkFig3_Breakdowns(b *testing.B) {
	for _, app := range bench.AppNames() {
		for _, proto := range gosvm.Protocols {
			b.Run(fmt.Sprintf("%s/%s", app, proto), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := benchRunner()
					avg := r.Run(app, proto, 8).Stats.AvgNode()
					b.ReportMetric(avg.Time[stats.CatCompute].Micros()/1e3, "compute-ms")
					b.ReportMetric(avg.Time[stats.CatData].Micros()/1e3, "data-ms")
					b.ReportMetric(avg.Time[stats.CatLock].Micros()/1e3, "lock-ms")
					b.ReportMetric(avg.Time[stats.CatBarrier].Micros()/1e3, "barrier-ms")
					b.ReportMetric(avg.Time[stats.CatProtocol].Micros()/1e3, "protocol-ms")
					b.ReportMetric(avg.Time[stats.CatGC].Micros()/1e3, "gc-ms")
				}
			})
		}
	}
}

// BenchmarkFig4_PerProcPhases reproduces the per-processor inter-barrier
// breakdown instrumentation on Water-Nsquared.
func BenchmarkFig4_PerProcPhases(b *testing.B) {
	for _, proto := range []gosvm.Protocol{gosvm.LRC, gosvm.HLRC} {
		b.Run(proto.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				app, err := apps.New("water-nsq", apps.SizeTest)
				if err != nil {
					b.Fatal(err)
				}
				res, err := gosvm.RunWithPhases(gosvm.Options{
					Protocol: proto, Machine: gosvm.Machine{Nodes: 8}, PageBytes: 1024,
				}, app)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Phases) == 0 {
					b.Fatal("no phases captured")
				}
				// Imbalance in the captured phase: max/min lock time.
				ph := res.Phases[len(res.Phases)/2]
				var maxL, sumL float64
				for _, nd := range ph.PerNode {
					l := nd.Time[stats.CatLock].Micros()
					sumL += l
					if l > maxL {
						maxL = l
					}
				}
				if sumL > 0 {
					b.ReportMetric(maxL/(sumL/float64(len(ph.PerNode))), "lock-imbalance")
				}
			}
		})
	}
}

// BenchmarkSec48_SORZero reproduces the §4.8 experiment: SOR with
// zero-initialized interior, the case most favorable to homeless LRC.
func BenchmarkSec48_SORZero(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		lrc, hlrc, adv := r.SORZeroData(8)
		b.ReportMetric(lrc.Micros()/1e3, "lrc-ms")
		b.ReportMetric(hlrc.Micros()/1e3, "hlrc-ms")
		b.ReportMetric(adv*100, "hlrc-advantage-pct")
	}
}

// --- Ablation benchmarks for the design choices called out in DESIGN.md.

func BenchmarkAblation_HomePlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		directed, rr := r.AblationHomePlacement(io.Discard, "sor", 8)
		b.ReportMetric(directed.Micros()/1e3, "directed-ms")
		b.ReportMetric(rr.Micros()/1e3, "roundrobin-ms")
	}
}

func BenchmarkAblation_InterruptCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		r.AblationInterruptCost(io.Discard, "water-nsq", 8)
	}
}

func BenchmarkAblation_PageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		r.AblationPageSize(io.Discard, "water-nsq", 8)
	}
}

func BenchmarkAblation_GCThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		r.AblationGCThreshold(io.Discard, "water-nsq", 8)
	}
}

// BenchmarkAblation_Mesh compares the crossbar and 2-D mesh network
// models.
func BenchmarkAblation_Mesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		xb, mesh := r.AblationMesh(io.Discard, "water-nsq", 8)
		b.ReportMetric(xb.Micros()/1e3, "crossbar-ms")
		b.ReportMetric(mesh.Micros()/1e3, "mesh-ms")
	}
}

// TestBenchmarkHarness smoke-tests the full table/figure generation at
// test scale, so `go test` exercises the same code paths the paper-size
// reproduction uses.
func TestBenchmarkHarness(t *testing.T) {
	r := benchRunner()
	r.Table1(io.Discard)
	r.Table2(io.Discard)
	bench.Table3For(io.Discard, 8192, gosvm.DefaultCosts())
	r.Table4(io.Discard)
	r.Table5(io.Discard)
	r.Table6(io.Discard)
	r.Fig3(io.Discard)
	r.Fig4(io.Discard)
	r.SORZero(io.Discard)
	r.Ablations(io.Discard)
}

// TestPaperClaims verifies the central qualitative claims at test scale
// on a workload where they are expected to show: the home-based protocol
// must not lose to the homeless one, and its protocol memory must be far
// smaller.
func TestPaperClaims(t *testing.T) {
	r := benchRunner()
	app := "water-sp"
	lrc := r.Run(app, core.ProtoLRC, 8)
	hlrc := r.Run(app, core.ProtoHLRC, 8)
	if float64(hlrc.Stats.Elapsed) > 1.1*float64(lrc.Stats.Elapsed) {
		t.Errorf("HLRC (%v) much slower than LRC (%v) on %s", hlrc.Stats.Elapsed, lrc.Stats.Elapsed, app)
	}
	if hlrc.Stats.PeakProtoMem() >= lrc.Stats.PeakProtoMem() {
		t.Errorf("HLRC protocol memory (%d) not below LRC (%d)",
			hlrc.Stats.PeakProtoMem(), lrc.Stats.PeakProtoMem())
	}
}
