package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the harness around its own
// calls into the program: name, start, end, the span that caused it,
// and an id shared by everything done for one cell or request rung.
type span struct {
	name       string
	id         string
	parent     int // index into spanLog.spans, -1 for a root
	start, end time.Duration
}

// spanLog holds spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay nothing.
type spanLog struct {
	t0    time.Time
	spans []span
	// paused suspends recording, so that a traced run can time passes
	// with and without it and report the difference.
	paused bool
}

func (l *spanLog) begin(name, id string, parent int) int {
	if l == nil || l.paused {
		return -1
	}
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, start: time.Since(l.t0)})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = time.Since(l.t0)
}

// seconds returns the durations of every span with the given name.
func (l *spanLog) seconds(name string) []float64 {
	var out []float64
	if l == nil {
		return out
	}
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event format (complete
// "X" events, microsecond timestamps), loadable by chrome://tracing and
// Perfetto.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		parent := ""
		if s.parent >= 0 {
			parent = l.spans[s.parent].name
		}
		events[i] = event{
			Name: s.name,
			Ph:   "X",
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Pid:  1,
			Tid:  1,
			Args: map[string]any{"id": s.id, "span": i, "parent_span": s.parent, "parent": parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
