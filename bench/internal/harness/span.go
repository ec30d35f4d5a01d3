package harness

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// NoSpan is the parent of a root span and the id a nil Tracer returns.
const NoSpan = -1

// Span is one timed call into a layer. Start and End are nanoseconds
// since the tracer was created; Parent is the span that caused this one
// (NoSpan for roots) and Op the workload op both belong to (-1 outside
// any op). ID is the span's index in the trace.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer records spans in memory; they are written out once, at exit.
// All methods are no-ops on a nil *Tracer, so instrumented code calls
// them unconditionally and an untraced run pays one nil check.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id.
func (t *Tracer) Begin(name string, parent, op int) int {
	if t == nil {
		return NoSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// End closes the span.
func (t *Tracer) End(id int) {
	if t == nil || id == NoSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfStat aggregates every span of one name.
type SelfStat struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	// SelfNS is TotalNS minus the part of each span's interval that its
	// child spans cover (overlapping children are counted once).
	SelfNS int64 `json:"self_ns"`
}

// SelfTimes computes per-name totals and self times. A span's self time
// is its duration minus the union of its children's intervals clipped
// to it.
func SelfTimes(spans []Span) []SelfStat {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != NoSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*SelfStat)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &SelfStat{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalNS += dur
		st.SelfNS += dur - covered(s, children[s.ID])
	}
	out := make([]SelfStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(0), int64(-1)
	flush := func() {
		if curEnd > curStart {
			total += curEnd - curStart
		}
	}
	for _, k := range kids {
		s, e := k.Start, k.End
		if s < parent.Start {
			s = parent.Start
		}
		if e > parent.End {
			e = parent.End
		}
		if e <= s {
			continue
		}
		if curEnd < curStart || s > curEnd {
			flush()
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	flush()
	return total
}

// SpanFile is the on-disk form of a trace: the raw spans plus the
// per-name self-time table derived from them.
type SpanFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Self     []SelfStat `json:"self"`
	Spans    []Span     `json:"spans"`
}

// WriteSpanFile writes the trace of one workload as JSON.
func WriteSpanFile(path, workload string, seed uint64, spans []Span) error {
	data, err := json.Marshal(SpanFile{Workload: workload, Seed: seed, Self: SelfTimes(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
