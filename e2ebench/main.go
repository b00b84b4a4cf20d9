// Command e2ebench is the repository's end-to-end benchmark. It drives the
// public entry points of the ClearView reproduction with a seeded,
// closed-loop load, checks every output against a hand-written
// expectation, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// first repeats the untraced measurement, then measures the same rounds
// again with spans and the program's stage tracer on, and reports the
// per-layer set. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// Each workload builds its fixture at least minSetups times and until
// setupTime has passed, at most maxSetups times; setup_s is the median,
// so one slow build on a shared host does not move it.
const (
	minSetups = 5
	maxSetups = 25
	setupTime = time.Second
)

// workload is one benchmark scenario. setup builds everything the timed
// rounds need; round runs the workload's fixed seeded sequence of
// operations once and reports each through the meter; finish turns a
// pass into metrics; probe times the machine layer directly after the
// traced pass.
type workload interface {
	setup(rec *recorder) error
	round(m *meter) error
	probe(rec *recorder, s *sheet) error
	finish(m *meter, s *sheet)
}

var workloads = map[string]func(seed uint64, reg *obs.Registry) workload{
	"pages":           newPages,
	"campaign-live":   func(seed uint64, reg *obs.Registry) workload { return newCampaigns(seed, reg, false) },
	"campaign-replay": func(seed uint64, reg *obs.Registry) workload { return newCampaigns(seed, reg, true) },
	"community-sim":   newCommunity,
}

// endToEnd maps the gated end-to-end metric names onto each workload's
// own metric names. Every workload must report every gated metric, so the
// gated names are workload-neutral; the workload's own names (the ones
// the paper's tables use) are printed alongside.
var endToEnd = map[string]map[string]string{
	"pages": {
		"ops_per_s": "req_per_s", "op_p50_ms": "req_p50_ms", "op_tail_ms": "req_p99_ms",
	},
	"campaign-live": {
		"ops_per_s": "campaigns_per_s", "op_p50_ms": "protect_p50_ms", "op_tail_ms": "protect_p90_ms",
	},
	"campaign-replay": {
		"ops_per_s": "campaigns_per_s", "op_p50_ms": "protect_p50_ms", "op_tail_ms": "protect_p90_ms",
	},
	"community-sim": {
		"ops_per_s": "campaigns_per_s", "op_p50_ms": "converge_p50_ms", "op_tail_ms": "converge_p90_ms",
	},
}

// gatedEndToEnd and gatedLayers list, in order, the metrics the result
// line carries; they are the names BENCHMARK.json declares.
var gatedEndToEnd = []string{"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "heap_retained_mb"}

// gatedLayers are the per-layer metrics, with their units. A workload
// that does not exercise a layer reports its metrics as 0.
var gatedLayers = []struct{ name, unit string }{
	{"setup.learn_s", "s"}, {"setup.patch_s", "s"},
	{"vm.new_us", "us"}, {"vm.run_us", "us"}, {"vm.steps", "count"}, {"vm.mips", "MIPS"},
	{"monitor.hook_runs", "count"}, {"monitor.overhead_x", "x"},
	{"core.execute_us", "us"}, {"core.pipeline_us", "us"},
	{"correlate.candidates", "count"}, {"correlate.checks", "count"}, {"correlate.violations", "count"},
	{"correlate.check_run_ms", "ms"}, {"correlate.build_checks_us", "us"}, {"correlate.self_ms", "ms"},
	{"repair.repairs", "count"}, {"repair.build_us", "us"},
	{"evaluate.unsuccessful", "count"}, {"evaluate.useful_ratio", "ratio"}, {"evaluate.repair_run_ms", "ms"},
	{"replay.runs", "count"}, {"replay.discards", "count"}, {"replay.survivor_ratio", "ratio"},
	{"replay.time_ms", "ms"}, {"replay.farm_ms", "ms"}, {"replay.record_seal_ms", "ms"},
	{"community.manager_msgs", "count"}, {"community.batches", "count"}, {"community.replay_runs", "count"},
	{"mgr.handle_ms", "ms"}, {"mgr.handle_blocked_share", "ratio"},
	{"agg.handle_ms", "ms"}, {"agg.handle_blocked_share", "ratio"},
	{"flush_ms", "ms"}, {"flush_blocked_share", "ratio"},
	{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.memo_hit_ratio", "ratio"},
	{"sim.genuine_runs", "count"}, {"sim.execute_ms", "ms"}, {"sim.report_ms", "ms"},
	{"sim.flush_ms", "ms"}, {"sim.sched_self_ms", "ms"},
	{"gc.cpu_share", "ratio"}, {"gc.alloc_mb_per_op", "MB/op"}, {"gc.allocs_per_op", "allocs/op"},
	{"trace.overhead_pct", "%"},
}

func main() {
	name := flag.String("workload", "", "workload: pages, campaign-live, campaign-replay or community-sim")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measure whole rounds until this many seconds have passed")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span files and the count ledger")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: usage: --workload <pages|campaign-live|campaign-replay|community-sim> --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(*name, mk, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the contract's last output line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, mk func(uint64, *obs.Registry) workload, seed uint64, budget time.Duration, traced bool, out string) (*result, error) {
	var reg *obs.Registry
	if traced {
		reg = obs.New()
	}
	s := newSheet()

	// Set-up, several times; the last fixture is the one measured.
	var w workload
	var setups, learns, patches []float64
	for began := time.Now(); len(setups) < minSetups || len(setups) < maxSetups && time.Since(began) < setupTime; {
		w = mk(seed, reg)
		rec := newRecorder(true)
		start := time.Now()
		if err := w.setup(rec); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spans := rec.byName()
		learns = append(learns, spans.total("core.Learn").Seconds())
		patches = append(patches, spans.total("patch").Seconds())
	}
	s.add("setup_s", median(setups), "s")

	// The untraced measurement: whole rounds until the budget is spent. A
	// traced run gives half the budget to it and half to the traced pass.
	if traced {
		budget /= 2
	}
	m := newMeter(newRecorder(false), nil)
	if err := m.measure(w, budget, 0); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	w.finish(m, s)
	s.add("heap_peak_mb", float64(m.heapPeak)/(1<<20), "MB")
	s.add("heap_retained_mb", float64(m.heapRetained)/(1<<20), "MB")
	for _, gated := range gatedEndToEnd {
		if own, ok := endToEnd[name][gated]; ok {
			s.alias(gated, own)
		}
	}
	failed, attempted, problems := m.failed, m.attempted, m.problems

	var layers *sheet
	if traced {
		// The traced pass repeats exactly the rounds just measured, so the
		// difference between the two passes is the tracing overhead.
		layers = newSheet()
		layers.add("setup.learn_s", median(learns), "s")
		layers.add("setup.patch_s", median(patches), "s")
		tm := newMeter(newRecorder(true), reg)
		if err := tm.measure(w, 0, m.rounds); err != nil {
			return nil, fmt.Errorf("%s traced: %w", name, err)
		}
		w.finish(tm, layers)
		if err := w.probe(tm.rec, layers); err != nil {
			return nil, fmt.Errorf("%s probe: %w", name, err)
		}
		tm.finishLayers(layers, m)
		for _, l := range gatedLayers {
			if _, ok := layers.get(l.name); !ok {
				layers.add(l.name, 0, l.unit)
			}
		}
		failed += tm.failed
		attempted += tm.attempted
		problems = append(problems, tm.problems...)
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tm.rec.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("%d spans written to %s\n", len(tm.rec.spans), path)
		tm.rec.printTable(os.Stdout, tm.attempted)
		printStages(os.Stdout, tm.stages, tm.attempted)
	}

	// Deterministic counts must repeat exactly across runs of one seed.
	counts := map[string]float64{}
	for _, k := range deterministicCounts {
		for _, sh := range []*sheet{s, layers} {
			if sh == nil {
				continue
			}
			if v, ok := sh.get(k); ok {
				counts[k] = v
			}
		}
	}
	ledgerErr := checkLedger(out, name, seed, counts)
	if ledgerErr != nil {
		problems = append(problems, ledgerErr.Error())
	}
	for _, p := range problems {
		fmt.Printf("FAIL %s\n", p)
	}

	fmt.Printf("workload %s, seed %d: %d rounds, %d operations, %d failed, %.2fs measured\n",
		name, seed, m.rounds, m.attempted, m.failed, m.elapsed.Seconds())
	s.add("failed_ratio", float64(failed)/float64(attempted), "ratio")
	s.print(os.Stdout, "end-to-end")
	res := &result{Correct: failed == 0 && ledgerErr == nil, Attempted: attempted, Failed: failed, Metrics: map[string]resultMetric{}}
	from, gated := s, gatedEndToEnd
	if traced {
		layers.print(os.Stdout, "per-layer")
		from, gated = layers, nil
		for _, l := range gatedLayers {
			gated = append(gated, l.name)
		}
	}
	for _, k := range gated {
		v, ok := from.get(k)
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", name, k)
		}
		res.Metrics[k] = resultMetric{Value: v, Unit: from.unit(k)}
	}
	return res, nil
}
