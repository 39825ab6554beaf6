package stats

import (
	"encoding/json"
	"io"
)

// countsMap renders Counters with stable snake_case keys. Maps marshal
// with sorted keys, so the JSON output is deterministic.
func countsMap(c Counters) map[string]int64 {
	m := make(map[string]int64, len(counterFields))
	for _, f := range counterFields {
		m[f.key] = *f.at(&c)
	}
	return m
}

type jsonNode struct {
	TimeNs       map[string]int64 `json:"time_ns"`
	Counts       map[string]int64 `json:"counts"`
	MsgsOut      map[string]int64 `json:"msgs_out"`
	BytesOut     map[string]int64 `json:"bytes_out"`
	ProtoMemPeak int64            `json:"proto_mem_peak"`
	AppMem       int64            `json:"app_mem"`
	RecoveryNs   int64            `json:"recovery_ns"`
}

func nodeJSON(n *Node) jsonNode {
	jn := jsonNode{
		TimeNs:       make(map[string]int64, NumCategories),
		Counts:       countsMap(n.Counts),
		MsgsOut:      make(map[string]int64, NumClasses),
		BytesOut:     make(map[string]int64, NumClasses),
		ProtoMemPeak: n.ProtoMemPeak,
		AppMem:       n.AppMem,
		RecoveryNs:   int64(n.Recovery),
	}
	for c := Category(0); c < NumCategories; c++ {
		jn.TimeNs[c.String()] = int64(n.Time[c])
	}
	for c := Class(0); c < NumClasses; c++ {
		jn.MsgsOut[c.String()] = n.MsgsOut[c]
		jn.BytesOut[c.String()] = n.Bytes[c]
	}
	return jn
}

// MarshalJSON emits the run in a stable machine-readable shape for the
// benchmark trajectory (BENCH_*.json and friends).
func (r *Run) MarshalJSON() ([]byte, error) {
	out := struct {
		App           string      `json:"app"`
		Protocol      string      `json:"protocol"`
		Procs         int         `json:"procs"`
		ElapsedNs     int64       `json:"elapsed_ns"`
		SeqNs         int64       `json:"seq_ns,omitempty"`
		Speedup       float64     `json:"speedup,omitempty"`
		TotalMsgs     int64       `json:"total_msgs"`
		DataBytes     int64       `json:"data_bytes"`
		ProtocolBytes int64       `json:"protocol_bytes"`
		PeakProtoMem  int64       `json:"peak_proto_mem"`
		TotalAppMem   int64       `json:"total_app_mem"`
		Serve         *ServeStats `json:"serve,omitempty"`
		Nodes         []jsonNode  `json:"nodes"`
	}{
		App:           r.App,
		Protocol:      r.Protocol,
		Procs:         len(r.Nodes),
		ElapsedNs:     int64(r.Elapsed),
		SeqNs:         int64(r.SeqTime),
		Speedup:       r.Speedup(),
		TotalMsgs:     r.TotalMsgs(),
		DataBytes:     r.TotalBytes(ClassData),
		ProtocolBytes: r.TotalBytes(ClassProtocol),
		PeakProtoMem:  r.PeakProtoMem(),
		TotalAppMem:   r.TotalAppMem(),
		Serve:         r.Serve,
	}
	for _, nd := range r.Nodes {
		out.Nodes = append(out.Nodes, nodeJSON(nd))
	}
	return json.Marshal(out)
}

// WriteJSON writes the run as indented JSON followed by a newline.
func (r *Run) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}
