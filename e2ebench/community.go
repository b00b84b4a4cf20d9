package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/community"
	"repro/internal/community/sim"
	"repro/internal/daikon"
	"repro/internal/obs"
	"repro/internal/redteam"
	"repro/internal/webapp"
)

// communityPool is the set attack sets are drawn from: the repairable
// defects a scope-1 community on the default learning corpus converges
// on, each in about the same simulated work. 285595 needs scope 2 and
// 325403 the expanded corpus; 311710 (a repair exposes a second failure)
// and hang-loop (every genuine run walks the hang budget) each cost a
// campaign about half as much again, so drawing them would make the
// campaign time depend on the seed's draw rather than on the program.
var communityPool = []string{"269095", "290162", "295854", "296134", "312278", "320182", "div-zero", "unaligned"}

// attackSetSizes are the sizes of the campaigns in one round, in the
// order the seed shuffles them. They add up to the pool, so every round
// attacks each pooled defect exactly once.
var attackSetSizes = []int{2, 2, 4}

const (
	communityNodes       = 2000
	communityAggregators = 16
	communityAdversaries = communityNodes / 50 // 2%
	communityRounds      = 8
)

// communitySim runs §3 at deployment scale: whole community campaigns in
// the discrete-event simulator.
type communitySim struct {
	seed uint64
	app  *webapp.App
	db   *daikon.DB
	sets [][]attack
}

// newCommunity ignores the run's registry: every traced campaign records
// into one of its own.
func newCommunity(seed uint64, _ *obs.Registry) workload { return &communitySim{seed: seed} }

// drawAttackSets draws one round of attack sets: the pool in a seeded
// order, cut into sets of the shuffled sizes, with seeded variants.
func drawAttackSets(seed uint64, app *webapp.App) ([][]attack, error) {
	r := rand.New(rand.NewPCG(seed, 3))
	sizes := append([]int(nil), attackSetSizes...)
	r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	order := r.Perm(len(communityPool))
	sets := make([][]attack, len(sizes))
	for i, n := range sizes {
		var members []int
		members, order = order[:n], order[n:]
		for _, k := range members {
			ex, err := exploitByID(communityPool[k])
			if err != nil {
				return nil, err
			}
			v := r.IntN(ex.Variants)
			sets[i] = append(sets[i], attack{ex: ex, variant: v, input: redteam.AttackInput(app, ex, v)})
		}
	}
	return sets, nil
}

func (c *communitySim) setup(rec *recorder) error {
	var err error
	rec.timed("webapp.Build", func() { c.app, err = webapp.Build() })
	if err != nil {
		return err
	}
	if c.db, err = learn(rec, c.app, redteam.LearningCorpus()); err != nil {
		return err
	}
	c.sets, err = drawAttackSets(c.seed, c.app)
	return err
}

func (c *communitySim) config(set []attack, reg *obs.Registry) community.SoakConfig {
	attacks := make([]community.SoakAttack, len(set))
	for i, a := range set {
		attacks[i] = community.SoakAttack{Label: a.ex.Bugzilla, Input: a.input}
	}
	return community.SoakConfig{
		Image:           c.app.Image,
		Seed:            c.db,
		BootstrapInputs: [][]byte{redteam.LearningCorpus()},
		Nodes:           communityNodes,
		Rounds:          communityRounds,
		Attacks:         attacks,
		Benign:          redteam.EvaluationPages()[:2],
		Batched:         true,
		Aggregators:     communityAggregators,
		Adversaries:     communityAdversaries,
		Churn:           &community.ChurnConfig{CrashPerRound: 4, JoinPerRound: 2},
		Obs:             reg,
	}
}

func (c *communitySim) round(m *meter) error {
	for _, set := range c.sets {
		var err error
		m.op("community campaign", func() (time.Duration, string, error) {
			m.collect()
			// A soak reads its counters back from its registry, so each
			// campaign gets a registry of its own.
			var reg *obs.Registry
			if m.tr != nil {
				reg = obs.New()
			}
			var rep *sim.Report
			start := time.Now()
			m.rec.timed("sim.Run", func() { rep, err = sim.Run(c.config(set, reg)) })
			took := time.Since(start)
			if err != nil {
				return took, "", err
			}
			m.addStages(reg.Snapshot().Stages)
			m.add("sim_run_ns", float64(took))
			m.add("community.manager_msgs", float64(rep.Messages))
			m.add("community.batches", float64(rep.Batches))
			m.add("community.replay_runs", float64(rep.ReplayRuns))
			m.add("sim.events", float64(rep.Events))
			m.add("sim.memo_hits", float64(rep.MemoHits))
			m.add("sim.memo_lookups", float64(rep.MemoHits+rep.MemoMisses))
			m.add("sim.genuine_runs", float64(rep.GenuineRuns))
			rounds := make([]string, len(rep.Defects))
			for i, d := range rep.Defects {
				m.add("defects", 1)
				m.add("defect_rounds", float64(d.Rounds))
				rounds[i] = fmt.Sprintf("%s:%d", d.Label, d.Rounds)
			}
			sig := fmt.Sprintf("events=%d msgs=%d batches=%d replay=%d memo=%d/%d genuine=%d rounds=%s",
				rep.Events, rep.Messages, rep.Batches, rep.ReplayRuns, rep.MemoHits, rep.MemoMisses,
				rep.GenuineRuns, strings.Join(rounds, ","))
			return took, sig, checkCommunity(rep, set)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkCommunity is the community oracle: the campaign converged, every
// adversary and no one else is quarantined, no adopted repair came from
// a quarantined member, and every attacked defect has an adopted repair.
func checkCommunity(rep *sim.Report, set []attack) error {
	if !rep.Converged {
		return fmt.Errorf("campaign did not converge")
	}
	if len(rep.Quarantined) != communityAdversaries {
		return fmt.Errorf("quarantined %d members, want the %d adversaries", len(rep.Quarantined), communityAdversaries)
	}
	for i, id := range rep.Quarantined {
		if want := fmt.Sprintf("adv%03d", i); id != want {
			return fmt.Errorf("quarantined %s, want %s", id, want)
		}
	}
	if rep.QuarantinedAdoptions != 0 {
		return fmt.Errorf("%d adoptions decided by quarantined members", rep.QuarantinedAdoptions)
	}
	if len(rep.Defects) != len(set) {
		return fmt.Errorf("%d defects reported, %d attacked", len(rep.Defects), len(set))
	}
	for i, d := range rep.Defects {
		if d.Label != set[i].ex.Bugzilla || d.Adopted == "" || !d.Converged {
			return fmt.Errorf("defect %s: adopted %q, converged %v", d.Label, d.Adopted, d.Converged)
		}
	}
	return nil
}

func (c *communitySim) finish(m *meter, s *sheet) {
	s.add("campaigns_per_s", m.opsPerSecond(), "1/s")
	s.add("converge_s", m.latency(0.50)/1e3, "s")
	s.add("converge_p50_ms", m.latency(0.50), "ms")
	s.add("converge_p90_ms", m.latency(0.90), "ms")
	s.add("presentations_mean", m.ratio("defect_rounds", "defects"), "count")
	if m.tr == nil {
		return
	}
	s.add("community.manager_msgs", m.perOp("community.manager_msgs"), "count")
	s.add("community.batches", m.perOp("community.batches"), "count")
	s.add("community.replay_runs", m.perOp("community.replay_runs"), "count")
	for _, st := range []string{"mgr.handle", "agg.handle", "flush"} {
		row := m.stage(st)
		s.add(st+"_ms", m.stageMsPerOp(st), "ms")
		s.add(st+"_blocked_share", row.BlockedShare(), "ratio")
	}
	s.add("sim.events", m.perOp("sim.events"), "count")
	s.add("sim.events_per_s", m.acc["sim.events"]/(m.acc["sim_run_ns"]/1e9), "1/s")
	s.add("sim.memo_hit_ratio", m.ratio("sim.memo_hits", "sim.memo_lookups"), "ratio")
	s.add("sim.genuine_runs", m.perOp("sim.genuine_runs"), "count")
	var events float64
	for _, st := range m.stages {
		if strings.HasPrefix(st.Name, "sim.") {
			events += float64(st.WallNs)
		}
	}
	s.add("sim.execute_ms", m.stageMsPerOp("sim.execute"), "ms")
	s.add("sim.report_ms", m.stageMsPerOp("sim.report"), "ms")
	s.add("sim.flush_ms", m.stageMsPerOp("sim.flush"), "ms")
	// sim.Run's own time outside every event it fired: set-up and the
	// scheduler loop. Events run one at a time inside sim.Run, so their
	// stage rows are its only children.
	s.add("sim.sched_self_ms", (m.acc["sim_run_ns"]-events)/1e6/float64(m.attempted), "ms")
}

// probe runs the machine layer on the round's attack inputs, and the
// monitors' cost on the legitimate pages that follow every attack.
func (c *communitySim) probe(rec *recorder, s *sheet) error {
	var inputs [][]byte
	for _, set := range c.sets {
		for _, a := range set {
			inputs = append(inputs, a.input)
		}
	}
	return probeMachine(rec, s, c.app, inputs, followOnPages())
}
