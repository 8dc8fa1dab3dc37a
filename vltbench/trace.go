package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one op share trace;
// parent is the span that caused this one (0 for an op's root).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Trace  uint64        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil *tracer records nothing, so untraced code paths pay one nil
// check per call site.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// ref identifies an open span: its ID and its trace.
type ref struct{ id, trace uint64 }

// timed runs fn inside a span named name under parent and returns its
// duration; fn receives the span's ref for its children. When tracing
// is off it only times fn.
func (t *tracer) timed(name string, parent ref, fn func(ref)) time.Duration {
	if !t.enabled() {
		start := time.Now()
		fn(ref{})
		return time.Since(start)
	}
	// A zero parent starts a new trace, identified by this span's ID.
	r := ref{id: t.next.Add(1), trace: parent.trace}
	if r.trace == 0 {
		r.trace = r.id
	}
	start := time.Since(t.epoch)
	fn(r)
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: r.id, Parent: parent.id, Trace: r.trace, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return end - start
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

func withSpan(ctx context.Context, r ref) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) ref {
	r, _ := ctx.Value(spanKey{}).(ref)
	return r
}

// spanHeader carries "trace.parent" across HTTP hops so a server-side
// span joins the client op's trace.
const spanHeader = "X-Vltbench-Span"

func (r ref) header() string {
	return strconv.FormatUint(r.trace, 10) + "." + strconv.FormatUint(r.id, 10)
}

func parseSpanHeader(h string) ref {
	tr, id, ok := strings.Cut(h, ".")
	if !ok {
		return ref{}
	}
	a, err1 := strconv.ParseUint(tr, 10, 64)
	b, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return ref{}
	}
	return ref{id: b, trace: a}
}

// selfTimes returns each span's duration minus the part of it covered
// by its children (overlapping children count once).
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := time.Duration(0)
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// spanSummary is the per-name digest written beside the span file.
type spanSummary struct {
	Count      int     `json:"count"`
	P50Ms      float64 `json:"p50_ms"`
	SelfP50Ms  float64 `json:"self_p50_ms"`
	SelfSumMs  float64 `json:"self_sum_ms"`
	TotalSumMs float64 `json:"total_sum_ms"`
}

// summarize digests spans by name: durations and self times.
func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], ms(self[s.ID]))
	}
	out := map[string]spanSummary{}
	for name, ds := range durs {
		sum := func(xs []float64) (t float64) {
			for _, x := range xs {
				t += x
			}
			return t
		}
		out[name] = spanSummary{
			Count: len(ds), P50Ms: median(ds), SelfP50Ms: median(selfs[name]),
			SelfSumMs: sum(selfs[name]), TotalSumMs: sum(ds),
		}
	}
	return out
}

// durations returns the durations (ms) of spans with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// writeChromeTrace writes spans in Chrome trace-event format (one
// thread row per trace), loadable in chrome://tracing or Perfetto.
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("{\"traceEvents\":[\n")
	for i, s := range spans {
		ev, err := json.Marshal(map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": s.Trace,
			"ts": float64(s.Start) / 1e3, "dur": float64(s.dur()) / 1e3,
			"args": map[string]uint64{"id": s.ID, "parent": s.Parent},
		})
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(ev)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace writes the span file and its summary, records the
// summary in the result, and returns the spans.
func finishTrace(t *tracer, cfg config, res *result) ([]span, error) {
	spans := t.snapshot()
	if err := writeChromeTrace(cfg.dir+"/spans.json", spans); err != nil {
		return nil, err
	}
	res.extra["spans"] = summarize(spans)
	res.extra["span_file"] = cfg.dir + "/spans.json"
	return spans, nil
}
