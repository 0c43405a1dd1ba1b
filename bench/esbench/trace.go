package main

// Tracing for the per-layer breakdown.  Spans are recorded by the
// benchmark around its calls into each layer — the wire, a session step,
// a child process — never inside the program under test.  A request is a
// root span with sequential children; a child's self time is its whole
// duration, the root's is what its children leave uncovered.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of one request.  ID and Parent index the
// request's own spans; the root's Parent is -1.
type span struct {
	Phase  string `json:"phase"`
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// step is a child span before it is stamped with its request.
type step struct {
	name       string
	start, end time.Time
}

// keepSpans bounds the spans one buffer retains for the span file (the
// most recent ones); the per-layer sums cover every traced request.
const keepSpans = 1 << 15

// traceBuf is one worker's trace for one phase.  Only its worker touches
// it until the phase ends.
type traceBuf struct {
	phase string
	epoch time.Time
	spans []span // ring of the last keepSpans spans
	next  int
	obs   map[string][]float64 // per-layer observations, one per request
}

func newTraceBuf(phase string, epoch time.Time) *traceBuf {
	return &traceBuf{phase: phase, epoch: epoch, obs: make(map[string][]float64)}
}

// request records one request: its root span and sequential children.
// Each child's self time, its duration, is observed under its name in µs.
func (tb *traceBuf) request(req int64, root string, start, end time.Time, children ...step) {
	tb.add(span{Phase: tb.phase, Req: req, ID: 0, Parent: -1, Name: root,
		Start: start.Sub(tb.epoch).Nanoseconds(), End: end.Sub(tb.epoch).Nanoseconds()})
	for k, c := range children {
		tb.add(span{Phase: tb.phase, Req: req, ID: k + 1, Parent: 0, Name: c.name,
			Start: c.start.Sub(tb.epoch).Nanoseconds(), End: c.end.Sub(tb.epoch).Nanoseconds()})
		tb.observe(c.name, us(c.end.Sub(c.start)))
	}
}

func (tb *traceBuf) add(s span) {
	if len(tb.spans) < keepSpans {
		tb.spans = append(tb.spans, s)
		return
	}
	tb.spans[tb.next] = s
	tb.next = (tb.next + 1) % keepSpans
}

func (tb *traceBuf) observe(name string, v float64) {
	tb.obs[name] = append(tb.obs[name], v)
}

// merged pools the observations of several buffers.
func merged(bufs []*traceBuf) map[string][]float64 {
	out := make(map[string][]float64)
	for _, tb := range bufs {
		for name, vs := range tb.obs {
			out[name] = append(out[name], vs...)
		}
	}
	return out
}

// writeSpans writes every buffer's retained spans to dir/spans-<workload>.json.
func writeSpans(dir, workload string, seed int64, bufs []*traceBuf) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var all []span
	for _, tb := range bufs {
		all = append(all, tb.spans[tb.next:]...)
		all = append(all, tb.spans[:tb.next]...)
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, all})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s.json", workload))
	return path, os.WriteFile(path, b, 0o644)
}
