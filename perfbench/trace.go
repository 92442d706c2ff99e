package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Spans of one
// operation share Op; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef identifies an open span; the zero tracer hands out refs with
// ID -1 and records nothing.
type spanRef struct{ id, op int }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// root opens a span that starts a new operation.
func (t *tracer) root(name string) spanRef {
	if t == nil {
		return spanRef{id: -1}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Op: t.ops, Name: name, Start: now, End: -1})
	return spanRef{id: id, op: t.ops}
}

// end closes a span opened by root.
func (t *tracer) end(s spanRef) {
	if t == nil || s.id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[s.id].End = now
	t.mu.Unlock()
}

// child records a finished call under parent.
func (t *tracer) child(parent spanRef, name string, start, end time.Time) {
	if t == nil || parent.id < 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent.id, Op: parent.op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

// timed runs one call into a layer, records it as a child span of
// parent and returns its wall time.
func (t *tracer) timed(parent spanRef, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.child(parent, name, start, end)
	return end.Sub(start), err
}

// selfRow is the aggregate of all spans sharing a name.
type selfRow struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it its children cover; children of one
// parent run on the parent's goroutine, one after another, so that part
// is the sum of their durations.
func (t *tracer) selfTimes() []selfRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfRow{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.Total += float64(s.End-s.Start) / 1e9
		r.Self += float64(s.End-s.Start-covered[i]) / 1e9
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows
}

// write stores every span as JSON at path.
func (t *tracer) write(path string, header map[string]any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := map[string]any{"header": header, "spans": t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// breakdown splits one end-to-end timing into per-layer rows. The rows
// plus Unattributed sum to Total.
type breakdown struct {
	Metric       string   `json:"metric"`
	Alias        string   `json:"alias"`
	Total        float64  `json:"total_s"`
	Rows         []bdRow  `json:"rows"`
	Unattributed float64  `json:"unattributed_s"`
	Overlap      float64  `json:"overlap,omitempty"`
	Notes        []string `json:"notes,omitempty"`
}

type bdRow struct {
	Layer string  `json:"layer"`
	Secs  float64 `json:"s"`
}

// newBreakdown builds a breakdown of total from busy rows. Busy rows
// measured on concurrent goroutines can sum past the wall time they ran
// in; then each row is scaled to its share of the wall time
// (row × total ÷ Σrows), Overlap records the factor Σrows ÷ total, and
// nothing is left unattributed. Otherwise rows are wall time as
// measured and the rest of total is unattributed.
func newBreakdown(metric, alias string, total float64, rows []bdRow) breakdown {
	b := breakdown{Metric: metric, Alias: alias, Total: total}
	var sum float64
	for _, r := range rows {
		sum += r.Secs
	}
	scale := 1.0
	if sum > total && total > 0 {
		scale = total / sum
		b.Overlap = sum / total
	}
	var attributed float64
	for _, r := range rows {
		r.Secs *= scale
		attributed += r.Secs
		b.Rows = append(b.Rows, r)
	}
	b.Unattributed = total - attributed
	return b
}

func (b breakdown) print(w *bufio.Writer) {
	fmt.Fprintf(w, "  %s (%s): total %.4f s", b.Metric, b.Alias, b.Total)
	if b.Overlap > 0 {
		fmt.Fprintf(w, ", busy rows overlap %.2fx and are scaled to wall time", b.Overlap)
	}
	fmt.Fprintln(w)
	for _, r := range b.Rows {
		fmt.Fprintf(w, "    %-44s %10.4f s %6.1f%%\n", r.Layer, r.Secs, 100*ratio(r.Secs, b.Total))
	}
	fmt.Fprintf(w, "    %-44s %10.4f s %6.1f%%\n", "unattributed", b.Unattributed, 100*ratio(b.Unattributed, b.Total))
	for _, n := range b.Notes {
		fmt.Fprintf(w, "    note: %s\n", n)
	}
}
