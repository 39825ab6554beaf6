package bench

import (
	"fmt"
	"runtime"
	"sync"

	"gosvm/internal/core"
)

// workers returns the effective host-parallelism cap.
func (r *Runner) workers() int {
	if r.Parallel > 0 {
		return r.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// gate returns the semaphore bounding concurrent simulations. Only exec
// takes a slot, never code that waits on other cells, so fan-outs compose
// without hold-and-wait deadlocks.
func (r *Runner) gate() chan struct{} {
	r.gateOnce.Do(func() { r.gateCh = make(chan struct{}, r.workers()) })
	return r.gateCh
}

func (r *Runner) acquire() { r.gate() <- struct{}{} }
func (r *Runner) release() { <-r.gate() }

// forEach runs fn(i) for every i in [0, n), fanning the calls out as
// goroutines bounded by the simulation gate. A panic in any call is
// re-raised on the caller (first one wins) after all calls finish, so
// sequential error behavior is preserved.
func (r *Runner) forEach(n int, fn func(int)) {
	if n <= 1 || r.workers() <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicOnce.Do(func() { panicked = v })
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// sweep runs fn over every cell, fanned out through forEach, and returns
// the results in cell order — or, when cells fail, the error of the first
// failing cell in cell order, whatever order they finished in. Renderers
// range over the same cells slice they passed in, so a row's label and
// its result cannot come apart.
func sweep[C, R any](r *Runner, cells []C, fn func(C) (R, error)) ([]R, error) {
	results := make([]R, len(cells))
	errs := make([]error, len(cells))
	r.forEach(len(cells), func(i int) { results[i], errs[i] = fn(cells[i]) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// cell identifies one grid run: the key of the memo cache, and the unit
// the batch sweeps fan out.
type cell struct {
	app   string
	proto core.Protocol
	procs int
}

// String is the cell's label in errors and progress lines: app/proto/pN.
func (c cell) String() string { return fmt.Sprintf("%s/%s/p%d", c.app, c.proto, c.procs) }

// grid returns the cells of apps x procs x protos in that nesting order,
// the row order of every table.
func grid(apps []string, procs []int, protos []core.Protocol) []cell {
	var cells []cell
	for _, app := range apps {
		for _, p := range procs {
			for _, proto := range protos {
				cells = append(cells, cell{app, proto, p})
			}
		}
	}
	return cells
}

// warm runs the given memoized cells concurrently (singleflight) and
// returns their results in cell order.
func (r *Runner) warm(cells []cell) []*core.Result {
	return must(sweep(r, cells, func(c cell) (*core.Result, error) {
		return r.Run(c.app, c.proto, c.procs), nil
	}))
}
