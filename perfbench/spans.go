package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own wrappers around
// calls into each layer: nothing inside the program is instrumented. Spans
// are kept in memory and written out as one JSON file when the run ends.

// spanRecord is one finished span. Start and End are nanoseconds since the
// tracer's epoch; Req groups the spans of one request or ladder item.
type spanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer collects spans. A nil tracer, or one switched off, records
// nothing, so the untraced paths pay only a nil or atomic check.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []spanRecord
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]spanRecord, 0, 1<<14)}
}

// active is an open span; its zero value is a no-op.
type active struct {
	t      *tracer
	id     uint64
	parent uint64
	req    uint64
	name   string
	start  time.Time
}

// start opens a root span of a new request.
func (t *tracer) start(name string) active {
	if t == nil || !t.on.Load() {
		return active{}
	}
	id := t.ids.Add(1)
	return active{t: t, id: id, req: id, name: name, start: time.Now()}
}

// child opens a span caused by a.
func (a active) child(name string) active {
	if a.t == nil {
		return active{}
	}
	return active{t: a.t, id: a.t.ids.Add(1), parent: a.id, req: a.req, name: name, start: time.Now()}
}

// end closes the span and records it.
func (a active) end() {
	if a.t == nil {
		return
	}
	now := time.Now()
	r := spanRecord{ID: a.id, Parent: a.parent, Req: a.req, Name: a.name,
		Start: a.start.Sub(a.t.epoch).Nanoseconds(), End: now.Sub(a.t.epoch).Nanoseconds()}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, r)
	a.t.mu.Unlock()
}

// spanHeader carries "<req>-<parent>" from a traced client request to the
// server-side wrapper, so the handler span joins the client's request.
const spanHeader = "X-Perfbench-Span"

// header returns the propagation value for a, or "" when untraced.
func (a active) header() string {
	if a.t == nil {
		return ""
	}
	return strconv.FormatUint(a.req, 10) + "-" + strconv.FormatUint(a.id, 10)
}

// wrapHandler records a span named name around every request that carries
// a span header while the tracer is on. It wraps the program's handler from
// outside; the handler itself is unchanged.
func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(spanHeader)
		if v == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		reqS, parentS, _ := strings.Cut(v, "-")
		req, _ := strconv.ParseUint(reqS, 10, 64)
		parent, _ := strconv.ParseUint(parentS, 10, 64)
		a := active{t: t, id: t.ids.Add(1), parent: parent, req: req, name: name, start: time.Now()}
		h.ServeHTTP(w, r)
		a.end()
	})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []spanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

// durationsUS returns the durations, in microseconds, of the spans named
// name, in recording order.
func durationsUS(spans []spanRecord, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// byReq sums span durations (µs) by name within each request whose root
// span is named root.
func byReq(spans []spanRecord, root string) map[uint64]map[string]float64 {
	out := map[uint64]map[string]float64{}
	for _, s := range spans {
		if s.Name == root {
			out[s.Req] = map[string]float64{}
		}
	}
	for _, s := range spans {
		m, ok := out[s.Req]
		if !ok {
			continue
		}
		m[s.Name] += float64(s.End-s.Start) / 1e3
	}
	return out
}

// writeSpans writes the spans, sorted by start, as one JSON document.
func writeSpans(path, workload string, seed int64, spans []spanRecord) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Spans    []spanRecord `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
