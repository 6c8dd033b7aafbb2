package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer's public functions. The benchmark
// records spans around its own calls only; nothing inside the program under
// test is instrumented.
type span struct {
	Name string `json:"name"`
	// ID groups the spans of one point (one simulation, one request).
	ID int `json:"id"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Parent indexes the span that caused this one; -1 for a root.
	Parent int `json:"parent"`
	// Width, when positive, says the span's children run on that many
	// parallel lanes (clients, workers), so their self time is charged at
	// 1/Width when it is summed against wall-clock time.
	Width int `json:"width,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is the tracing-off mode the end-to-end metrics are measured
// in.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

const noSpan = -1

// begin opens a span under parent (noSpan for a root) and returns its handle.
func (t *tracer) begin(name string, parent, id int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Start: now, End: now, Parent: parent})
	h := len(t.spans) - 1
	t.mu.Unlock()
	return h
}

// beginLanes opens a span whose children run on width parallel lanes.
func (t *tracer) beginLanes(name string, parent, id, width int) int {
	h := t.begin(name, parent, id)
	if t != nil {
		t.mu.Lock()
		t.spans[h].Width = width
		t.mu.Unlock()
	}
	return h
}

// end closes a span and returns its duration.
func (t *tracer) end(h int) time.Duration {
	if t == nil || h == noSpan {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[h].End = now
	d := now - t.spans[h].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// rename gives a span the name its outcome decides (a lease call that came
// back empty is not the RPC the lease metrics are about).
func (t *tracer) rename(h int, name string) {
	if t == nil || h == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[h].Name = name
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf returns the module a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time per layer over the subtree rooted at root, in
// wall-clock terms: a span below a Width-w ancestor is charged at 1/w, so a
// region that two lanes keep busy for its whole length sums to its length.
// With every lane busy the values add up to the root span's duration.
func layerSelf(spans []span, root int) map[string]float64 {
	self := selfTimes(spans)
	weight := make([]float64, len(spans))
	out := make(map[string]float64)
	for i, s := range spans { // parents precede children: begin appends in call order
		switch {
		case i == root:
			weight[i] = 1
		case s.Parent >= 0 && weight[s.Parent] > 0:
			weight[i] = weight[s.Parent]
			if w := spans[s.Parent].Width; w > 0 {
				weight[i] /= float64(w)
			}
		default:
			continue
		}
		out[layerOf(s.Name)] += weight[i] * float64(self[i]) / 1e9
	}
	return out
}

// spanSeconds returns the durations, in seconds, of every span named name in
// the subtree rooted at root.
func spanSeconds(spans []span, root int, name string) []float64 {
	in := make([]bool, len(spans))
	var out []float64
	for i, s := range spans {
		in[i] = i == root || (s.Parent >= 0 && in[s.Parent])
		if in[i] && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}
