package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one harness-recorded call into the program: its name, when it
// started and ended (relative to the recorder's creation), the span that
// was open when it began, and the operation it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`     // operation index; -1 outside operations
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. All calls come
// from the benchmark's single client goroutine, so spans nest strictly
// and a parent's children never overlap. A disabled recorder records
// nothing and costs one branch per call.
type recorder struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now(), op: -1} }

func nop() {}

// start opens a span and returns the function that closes it.
func (r *recorder) start(name string) func() {
	if !r.on {
		return nop
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return func() {
		r.spans[id].End = int64(time.Since(r.t0))
		r.open = r.open[:len(r.open)-1]
	}
}

// timed runs f under a span.
func (r *recorder) timed(name string, f func()) {
	done := r.start(name)
	f()
	done()
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count int
	total time.Duration
	self  time.Duration
}

// spanTable holds span statistics by span name.
type spanTable map[string]*spanStats

// byName aggregates spans by name. A span's self time is its duration
// minus the time its child spans cover; children of one parent run one
// after another on the client goroutine, so that is their summed
// duration.
func (r *recorder) byName() spanTable {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := spanTable{}
	for i, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.count++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// total is the summed duration of the named spans (0 if none ran).
func (st spanTable) total(name string) time.Duration {
	if s := st[name]; s != nil {
		return s.total
	}
	return 0
}

// write saves every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints the harness spans per name: calls, total and self
// time, both per operation.
func (r *recorder) printTable(w io.Writer, ops int) {
	stats := r.byName()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].total > stats[names[j]].total })
	rows := make([][]string, 0, len(names))
	for _, n := range names {
		st := stats[n]
		rows = append(rows, []string{
			n, fmt.Sprint(st.count),
			fmt.Sprintf("%.1f", us(st.total)/float64(ops)),
			fmt.Sprintf("%.1f", us(st.self)/float64(ops)),
		})
	}
	fmt.Fprintf(w, "harness spans (per operation, %d operations):\n", ops)
	fmt.Fprint(w, obs.FormatTable([]obs.Col{
		{Head: "span"}, {Head: "calls", Right: true}, {Head: "total_us", Right: true}, {Head: "self_us", Right: true},
	}, rows))
}

// printStages prints the program's own stage rows recorded during the
// traced pass. The program's stages carry no parent link, so a stage's
// wall time includes any stage nested in it.
func printStages(w io.Writer, stages []obs.StageSnap, ops int) {
	rows := make([][]string, 0, len(stages))
	for _, st := range stages {
		rows = append(rows, []string{
			st.Name, fmt.Sprint(st.Spans),
			fmt.Sprintf("%.1f", float64(st.WallNs)/1e3/float64(ops)),
			fmt.Sprintf("%.3f", st.BlockedShare()),
		})
	}
	fmt.Fprintf(w, "program stages (obs, wall per operation incl. nested stages):\n")
	fmt.Fprint(w, obs.FormatTable([]obs.Col{
		{Head: "stage"}, {Head: "spans", Right: true}, {Head: "wall_us", Right: true}, {Head: "blocked", Right: true},
	}, rows))
}

// stageDelta is after minus before, stage by stage, keeping stages that
// ran in between.
func stageDelta(before, after obs.Snapshot) []obs.StageSnap {
	var out []obs.StageSnap
	for _, a := range after.Stages {
		d := a
		if b := before.Stage(a.Name); b != nil {
			d.Spans -= b.Spans
			d.WallNs -= b.WallNs
			d.BlockedNs -= b.BlockedNs
			d.OnCPUNs -= b.OnCPUNs
			d.Points = nil
		}
		if d.Spans > 0 {
			out = append(out, d)
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
