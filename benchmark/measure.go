package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gosvm/internal/core"
	"gosvm/internal/stats"
)

const mib = 1 << 20

// heapSample is a snapshot of the allocator's cumulative counters; two of
// them bracket a pass.
type heapSample struct {
	alloc   uint64 // MemStats.TotalAlloc
	mallocs uint64 // MemStats.Mallocs
}

func sampleHeap() heapSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapSample{ms.TotalAlloc, ms.Mallocs}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// passCost is the host cost of one timed pass over a workload's cells.
// Wall clock and CPU are summed over the cells, each cell also scaled to
// the reference host by the calibration samples around it.
type passCost struct {
	wallS, cpuS       float64 // as measured
	refWallS, refCPUS float64 // on the reference host
	allocMB, mallocK  float64
	peakRSSMB         float64
}

// addCell adds one cell's wall clock and CPU time, as measured and as sc
// scales them to the reference host.
func (p *passCost) addCell(sc *scaler, wall, cpu time.Duration) {
	refWallS, refCPUS := sc.scale(wall, cpu)
	p.wallS += wall.Seconds()
	p.cpuS += cpu.Seconds()
	p.refWallS += refWallS
	p.refCPUS += refCPUS
}

// The sandbox this runs in shares its memory system with other tenants,
// and its speed drifts by tens of percent over tens of seconds: a 40 min
// log of one fixed simulation cell beside fixed pure-Go kernels showed the
// cell 45 % slower at times, an ALU loop 7 %, random access over 32 MB
// 29 %, and goroutine ping-pong over channels 31 % — with a few ticks of
// steal. Run-to-run, that is a 10-23 % spread of the median pass of one
// binary, against a 3 % spread when the host is quiet. So every cell is
// bracketed by a calibration kernel made of the two things the simulator
// does most — goroutine hand-offs and cache-missing memory access — and
// host_s / host_cpu_s are reported on a reference host where that kernel
// takes calibNominalWallS. Of the kernels and placements tried against the
// log, this one (8 MB + ping-pong, sampled between cells) tracked the
// cell best: it cut the spread between emulated runs from 14 % to 4 %.
// The raw values are printed beside the scaled ones.
const (
	calibRoundTrips = 10000
	calibAccesses   = 1 << 19
	// The kernel's wall clock and CPU time on the quiet reference host.
	calibNominalWallS = 0.0065
	calibNominalCPUS  = 0.0075
)

// calibBuf is 8 MB, twice the reference host's L2.
var calibBuf = make([]int32, 2<<20)

var calibSink int32

// calib is one calibration sample: the kernel's wall clock and CPU time.
// Wall clock is scaled by wall clock and CPU time by CPU time, so that a
// host that is slow because its memory is contended (both rise) and one
// that is slow because its CPU is shared (only the wall clock rises) are
// each corrected for what actually happened.
type calib struct{ wallS, cpuS float64 }

func calibKernel() calib {
	cpu, t := cpuTime(), time.Now()
	ping, pong, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(done)
	}()
	for i := 0; i < calibRoundTrips; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-done
	idx := 0
	var sum int32
	for i := 0; i < calibAccesses; i++ {
		idx = (idx*1103515245 + 12345) & (len(calibBuf) - 1)
		sum += calibBuf[idx]
		calibBuf[idx] = sum
	}
	calibSink += sum
	return calib{time.Since(t).Seconds(), (cpuTime() - cpu).Seconds()}
}

// calibrate returns the median of three runs of the calibration kernel.
func calibrate() calib {
	a, b, c := calibKernel(), calibKernel(), calibKernel()
	return calib{
		wallS: median([]float64{a.wallS, b.wallS, c.wallS}),
		cpuS:  median([]float64{a.cpuS, b.cpuS, c.cpuS}),
	}
}

// scaler turns measured intervals into reference-host time. Every
// interval is scaled by the mean of the calibration samples taken just
// before and just after it; one sample serves two adjacent intervals.
type scaler struct{ last calib }

func newScaler() *scaler { return &scaler{calibrate()} }

// scale is called when an interval of the given wall clock and CPU time
// has just ended.
func (s *scaler) scale(wall, cpu time.Duration) (refWallS, refCPUS float64) {
	before := s.last
	// Collect first: the garbage the interval left behind would otherwise
	// be collected concurrently with the kernel (which reads as a slower
	// host) and would set the next interval's heap goal (which makes its
	// resident-set peak bimodal).
	runtime.GC()
	s.last = calibrate()
	refWallS = wall.Seconds() * calibNominalWallS / ((before.wallS + s.last.wallS) / 2)
	refCPUS = cpu.Seconds() * calibNominalCPUS / ((before.cpuS + s.last.cpuS) / 2)
	return refWallS, refCPUS
}

// resetPeakRSS returns freed memory to the OS and resets the process's
// resident-set high-water mark, so that the next reading is the peak of
// one pass. Where the reset is not permitted the mark stays cumulative.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func column(passes []passCost, f func(passCost) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// rung is the simulated outcome of one serving cell (one fixed rate).
type rung struct {
	rate                 float64
	generated, completed int64
	p50, p99, p999       float64 // simulated ms
	beyondP99            int64   // latency samples above the p99
	saturated            bool
	seqReads, fallbacks  int64
	seqRetries           int64
	lockAcquires         int64
}

// simTotals aggregates everything simulated that one pass produced. It
// is a pure function of (workload, scale, seed): every field must repeat
// exactly from run to run, which the digest pins.
type simTotals struct {
	elapsedNs    int64
	dataBytes    int64
	protoBytes   int64
	protoMemPeak int64
	msgs         int64
	counts       map[string]int64 // stats.Counters fields, summed over nodes and cells
	timeNs       [stats.NumCategories]int64
	msgsInSkew   float64   // max over cells of max/mean serviced messages
	speedups     []float64 // seq / parallel simulated time, per batch cell
	rungs        []rung
	faultMsgs    int64 // messages sent by cells that run under a fault plan
}

// addCounters sums every int64 field of a Counters block by field name,
// so a counter added to the program later is aggregated (and digested)
// without touching the harness.
func addCounters(dst map[string]int64, c stats.Counters) {
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Int64 {
			dst[v.Type().Field(i).Name] += v.Field(i).Int()
		}
	}
}

func (t *simTotals) add(c *cell, res *core.Result, base *baseline) {
	run := res.Stats
	t.elapsedNs += int64(run.Elapsed)
	t.dataBytes += run.TotalBytes(stats.ClassData)
	t.protoBytes += run.TotalBytes(stats.ClassProtocol)
	if p := run.PeakProtoMem(); p > t.protoMemPeak {
		t.protoMemPeak = p
	}
	msgs := run.TotalMsgs()
	t.msgs += msgs
	if c.spec.opts.Fault.Active() {
		t.faultMsgs += msgs
	}
	var in, maxIn int64
	for _, nd := range run.Nodes {
		addCounters(t.counts, nd.Counts)
		for cat, d := range nd.Time {
			t.timeNs[cat] += int64(d)
		}
		in += nd.MsgsIn
		if nd.MsgsIn > maxIn {
			maxIn = nd.MsgsIn
		}
	}
	if in > 0 {
		if skew := float64(maxIn) * float64(len(run.Nodes)) / float64(in); skew > t.msgsInSkew {
			t.msgsInSkew = skew
		}
	}
	if base != nil && run.Elapsed > 0 {
		t.speedups = append(t.speedups, float64(base.elapsed)/float64(run.Elapsed))
	}
	if s := run.Serve; s != nil {
		n := s.Latency.Count()
		t.rungs = append(t.rungs, rung{
			rate:         c.spec.kv.OfferedLoad,
			generated:    s.Generated,
			completed:    s.Completed,
			p50:          s.Latency.P50().Micros() / 1e3,
			p99:          s.Latency.P99().Micros() / 1e3,
			p999:         s.Latency.P999().Micros() / 1e3,
			beyondP99:    n - (n*99+99)/100,
			saturated:    s.Saturated(),
			seqReads:     s.SeqlockReads,
			fallbacks:    s.SeqlockFallbacks,
			seqRetries:   s.SeqlockRetries,
			lockAcquires: s.LockAcquires,
		})
	}
}

// digest is the FNV-1a hash of every simulated quantity of the pass,
// rendered canonically. Two runs of the same code, workload, scale and
// seed must print the same digest; aa.sh fails on any mismatch.
func (t *simTotals) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d data=%d proto=%d mem=%d msgs=%d faultmsgs=%d skew=%x\n",
		t.elapsedNs, t.dataBytes, t.protoBytes, t.protoMemPeak, t.msgs, t.faultMsgs, t.msgsInSkew)
	names := make([]string, 0, len(t.counts))
	for k := range t.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%d\n", k, t.counts[k])
	}
	fmt.Fprintf(&b, "time=%v speedups=%x\n", t.timeNs, t.speedups)
	for _, r := range t.rungs {
		fmt.Fprintf(&b, "rung=%+v\n", r)
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}
