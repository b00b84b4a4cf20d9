package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/obs"
)

// meter measures one pass over a workload: whole rounds of its fixed
// operation sequence, one operation at a time (a closed loop with one
// client). It keeps per-operation latency samples, per-layer sums the
// workload adds, and a signature of each operation's deterministic counts
// so that every round can be checked against the first.
type meter struct {
	rec *recorder
	tr  *obs.Tracer   // the program's stage tracer; nil in the untraced pass
	reg *obs.Registry // tr's registry

	rounds, attempted, failed int
	round, idx                int
	roundLat                  [][]float64 // per-operation latency (ms), by round
	roundSecs                 []float64   // each round's wall time
	sigs                      []string    // round 0's per-operation signatures
	acc                       map[string]float64
	problems                  []string

	elapsed      time.Duration
	heapPeak     uint64 // most live heap seen between operations
	heapRetained uint64 // most live heap left after a round, collected
	gc           gcSample
	stages       []obs.StageSnap
	live         []metrics.Sample
}

func newMeter(rec *recorder, reg *obs.Registry) *meter {
	return &meter{
		rec: rec, tr: obs.NewTracer(reg), reg: reg, acc: map[string]float64{},
		live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
}

// measure runs whole rounds: until budget has passed (at least one), or
// exactly rounds of them when rounds > 0. After each round it collects
// the heap and reads what the program retains.
func (m *meter) measure(w workload, budget time.Duration, rounds int) error {
	gc0 := readGC()
	before := m.reg.Snapshot()
	for r := 0; ; r++ {
		if rounds > 0 && r == rounds || rounds == 0 && r > 0 && m.elapsed >= budget {
			break
		}
		m.round, m.idx = r, 0
		m.roundLat = append(m.roundLat, nil)
		start := time.Now()
		if err := w.round(m); err != nil {
			return err
		}
		took := time.Since(start)
		m.elapsed += took
		m.roundSecs = append(m.roundSecs, took.Seconds())
		m.rounds++
		runtime.GC()
		if v := m.liveHeap(); v > m.heapRetained {
			m.heapRetained = v
		}
	}
	m.gc = readGC().sub(gc0)
	m.addStages(stageDelta(before, m.reg.Snapshot()))
	return nil
}

// op runs one operation under a span named name. f returns the
// operation's latency sample, a signature of its deterministic counts,
// and an error when its output did not match the expectation.
func (m *meter) op(name string, f func() (time.Duration, string, error)) {
	m.rec.op = m.attempted
	done := m.rec.start(name)
	lat, sig, err := f()
	done()
	m.rec.op = -1

	m.attempted++
	m.roundLat[m.round] = append(m.roundLat[m.round], ms(lat))
	if err != nil {
		m.fail("round %d operation %d: %v", m.round, m.idx, err)
	}
	switch {
	case m.round == 0:
		m.sigs = append(m.sigs, sig)
	case m.idx >= len(m.sigs) || m.sigs[m.idx] != sig:
		m.fail("round %d operation %d: counts %q differ from round 0", m.round, m.idx, sig)
	}
	m.idx++

	if v := m.liveHeap(); v > m.heapPeak {
		m.heapPeak = v
	}
}

// collect runs a full collection before an operation's timer starts, so
// the garbage one large operation leaves is not charged to the next. It
// stays inside the round, so throughput still pays for it.
func (m *meter) collect() { m.rec.timed("runtime.GC", runtime.GC) }

// liveHeap reads the heap the last collection found live.
func (m *meter) liveHeap() uint64 {
	metrics.Read(m.live)
	return m.live[0].Value.Uint64()
}

func (m *meter) fail(format string, args ...any) {
	m.failed++
	if len(m.problems) < 20 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// add accumulates a per-layer quantity over the pass.
func (m *meter) add(key string, v float64) { m.acc[key] += v }

// perOp is an accumulated quantity divided by the operations attempted.
func (m *meter) perOp(key string) float64 { return m.acc[key] / float64(m.attempted) }

// ratio divides two accumulated quantities, 0 when the base is 0.
func (m *meter) ratio(num, den string) float64 {
	if m.acc[den] == 0 {
		return 0
	}
	return m.acc[num] / m.acc[den]
}

// addStages adds program stage rows to the pass's, stage by stage.
func (m *meter) addStages(rows []obs.StageSnap) {
	for _, r := range rows {
		i := 0
		for i < len(m.stages) && m.stages[i].Name != r.Name {
			i++
		}
		if i == len(m.stages) {
			m.stages = append(m.stages, obs.StageSnap{Name: r.Name})
		}
		st := &m.stages[i]
		st.Spans += r.Spans
		st.WallNs += r.WallNs
		st.BlockedNs += r.BlockedNs
		st.OnCPUNs += r.OnCPUNs
	}
}

// stage returns the program stage row recorded during the pass.
func (m *meter) stage(name string) obs.StageSnap {
	for _, st := range m.stages {
		if st.Name == name {
			return st
		}
	}
	return obs.StageSnap{Name: name}
}

// stageMsPerOp is a program stage's wall time per operation, in ms.
func (m *meter) stageMsPerOp(name string) float64 {
	return float64(m.stage(name).WallNs) / 1e6 / float64(m.attempted)
}

// opsPerSecond is the median over rounds of each round's operations per
// second. Every round is the same work, so the median discards rounds a
// burst of load from outside the benchmark slowed.
func (m *meter) opsPerSecond() float64 {
	rates := make([]float64, len(m.roundSecs))
	for i, secs := range m.roundSecs {
		rates[i] = float64(len(m.roundLat[i])) / secs
	}
	return median(rates)
}

// latency is the median over rounds of each round's p-th latency
// percentile, in ms. Like opsPerSecond, it is a figure of the rounds the
// host left alone.
func (m *meter) latency(p float64) float64 {
	per := make([]float64, len(m.roundLat))
	for i, lat := range m.roundLat {
		per[i] = percentile(lat, p)
	}
	return median(per)
}

// finishLayers adds the per-layer metrics every workload shares. base is
// the untraced pass over the same rounds: the Go runtime's figures come
// from it, and the tracing overhead is the traced pass's time per
// operation relative to it.
func (m *meter) finishLayers(s *sheet, base *meter) {
	g := base.gc
	busy := g.totalCPU - g.idleCPU
	share := 0.0
	if busy > 0 {
		share = g.gcCPU / busy
	}
	s.add("gc.cpu_share", share, "ratio")
	s.add("gc.alloc_mb_per_op", g.allocBytes/(1<<20)/float64(base.attempted), "MB/op")
	s.add("gc.allocs_per_op", g.allocObjects/float64(base.attempted), "allocs/op")
	perOp := func(x *meter) float64 { return x.elapsed.Seconds() / float64(x.attempted) }
	s.add("trace.overhead_pct", (perOp(m)/perOp(base)-1)*100, "%")
}

// gcSample is a reading of the Go runtime's cumulative GC and CPU figures.
type gcSample struct {
	gcCPU, totalCPU, idleCPU float64 // cpu-seconds
	allocBytes, allocObjects float64
}

var gcNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readGC() gcSample {
	ss := make([]metrics.Sample, len(gcNames))
	for i, n := range gcNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		}
		return 0
	}
	return gcSample{v(0), v(1), v(2), v(3), v(4)}
}

func (a gcSample) sub(b gcSample) gcSample {
	return gcSample{
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.idleCPU - b.idleCPU,
		a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects,
	}
}

// sheet is an ordered set of named metrics with units.
type sheet struct {
	names []string
	vals  map[string]float64
	units map[string]string
}

func newSheet() *sheet { return &sheet{vals: map[string]float64{}, units: map[string]string{}} }

func (s *sheet) add(name string, v float64, unit string) {
	if _, ok := s.vals[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vals[name] = v
	s.units[name] = unit
}

func (s *sheet) get(name string) (float64, bool) {
	v, ok := s.vals[name]
	return v, ok
}

func (s *sheet) unit(name string) string { return s.units[name] }

// alias reports an existing metric again under a second name.
func (s *sheet) alias(name, of string) {
	if v, ok := s.vals[of]; ok {
		s.add(name, v, s.units[of])
	}
}

func (s *sheet) print(w io.Writer, title string) {
	rows := make([][]string, 0, len(s.names))
	for _, n := range s.names {
		rows = append(rows, []string{n, fmt.Sprintf("%.6g", s.vals[n]), s.units[n]})
	}
	fmt.Fprintf(w, "%s metrics:\n", title)
	fmt.Fprint(w, obs.FormatTable([]obs.Col{{Head: "metric"}, {Head: "value", Right: true}, {Head: "unit"}}, rows))
}

// median and percentile use linear interpolation between closest ranks.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// deterministicCounts must repeat exactly across runs of one seed.
var deterministicCounts = []string{
	"presentations_mean", "vm.steps", "monitor.hook_runs", "replay.runs",
	"community.manager_msgs", "sim.events",
}

// checkLedger compares counts with those an earlier run of the same
// benchmark binary, workload and seed left in dir, and records any count
// not seen before. The binary's hash is part of the key, so a changed
// program starts a fresh ledger.
func checkLedger(dir, workload string, seed uint64, counts map[string]float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(dir, "ledger", fmt.Sprintf("%s-seed%d-%s.json", workload, seed, hex.EncodeToString(sum[:6])))
	seen := map[string]float64{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &seen); err != nil {
			return fmt.Errorf("ledger %s: %w", path, err)
		}
	}
	for k, v := range counts {
		if old, ok := seen[k]; ok && old != v {
			return fmt.Errorf("%s = %v, an earlier run of seed %d measured %v", k, v, seed, old)
		}
		seen[k] = v
	}
	raw, err := json.Marshal(seen)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
