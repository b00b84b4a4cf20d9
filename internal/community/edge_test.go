package community

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/redteam"
	"repro/internal/vm"
	"repro/internal/webapp"
)

func TestManagerRejectsUnknownMessage(t *testing.T) {
	app := webapp.MustBuild()
	m, err := NewManager(ManagerConfig{Image: app.Image})
	if err != nil {
		t.Fatal(err)
	}
	nodeSide, mgrSide := Pipe()
	done := make(chan error, 1)
	go func() { done <- m.Serve(mgrSide) }()
	if err := nodeSide.Send(Envelope{Kind: MsgAck}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("manager accepted a bogus message kind")
	}
}

func TestManagerRequiresImage(t *testing.T) {
	if _, err := NewManager(ManagerConfig{}); err == nil {
		t.Fatal("nil image accepted")
	}
}

func TestNodeReconnectKeepsShard(t *testing.T) {
	// A node that reconnects (same ID) keeps its learning assignment:
	// shard handouts are per-identity, not per-connection.
	app := webapp.MustBuild()
	m, err := NewManager(ManagerConfig{Image: app.Image, LearnShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	connect := func() *Node {
		nodeSide, mgrSide := Pipe()
		go func() { _ = m.Serve(mgrSide) }()
		n := NewNode("stable-id", app.Image, nodeSide)
		if err := n.Connect(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	n1 := connect()
	lo1 := n1.Directives().LearnLo
	_ = n1.Close()
	n2 := connect()
	if n2.Directives().LearnLo != lo1 {
		t.Errorf("shard changed across reconnect: %#x vs %#x", lo1, n2.Directives().LearnLo)
	}
}

func TestStaleReportIgnored(t *testing.T) {
	// A report carrying an old directive sequence must not advance a
	// checking campaign (the node ran without the checking patches).
	app := webapp.MustBuild()
	setupDB, _, err := core.Learn(app.Image, core.LearnConfig{
		Inputs: [][]byte{redteam.LearningCorpus()},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ManagerConfig{
		Image: app.Image, Seed: setupDB,
		BootstrapInputs: [][]byte{redteam.LearningCorpus()},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ex redteam.Exploit
	for _, e := range redteam.Exploits() {
		if e.Bugzilla == "290162" {
			ex = e
		}
	}
	site := app.Labels["site_290162"]
	failure := &FailureInfo{PC: site, Monitor: "MemoryFirewall", Stack: []uint32{}}

	// First report opens the case (any seq).
	m.processReport(&RunReport{NodeID: "n", Seq: 0, Outcome: uint8(vm.OutcomeFailure), Failure: failure})
	if st := m.CaseStates()[site]; st != core.StateChecking {
		t.Fatalf("state = %v", st)
	}
	// Stale failing reports (seq 0 < the case's phase) must not count as
	// checking runs no matter how many arrive.
	for i := 0; i < 5; i++ {
		m.processReport(&RunReport{NodeID: "n", Seq: 0, Outcome: uint8(vm.OutcomeFailure), Failure: failure})
	}
	if st := m.CaseStates()[site]; st != core.StateChecking {
		t.Fatalf("stale reports advanced the campaign to %v", st)
	}
	_ = ex
}

// TestManagerQuarantinesForgedTallies: under VetReports a check tally no
// run can produce, or a second tally for the same check in one report,
// quarantines its sender with a reason naming the forgery, while an
// honest tally for the same check passes.
func TestManagerQuarantinesForgedTallies(t *testing.T) {
	app := webapp.MustBuild()
	setupDB, _, err := core.Learn(app.Image, core.LearnConfig{
		Inputs: [][]byte{redteam.LearningCorpus()},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ManagerConfig{
		Image: app.Image, Seed: setupDB, VetReports: true,
		BootstrapInputs: [][]byte{redteam.LearningCorpus()},
	})
	if err != nil {
		t.Fatal(err)
	}
	site := app.Labels["site_290162"]
	failure := &FailureInfo{PC: site, Monitor: "MemoryFirewall", Stack: []uint32{}}
	m.processReport(&RunReport{NodeID: "opener", Outcome: uint8(vm.OutcomeFailure), Failure: failure})
	c := m.cases[site]
	if c == nil || len(c.cands) == 0 {
		t.Fatal("the failure opened no case with candidates")
	}
	tally := func(checks, violations uint64, lastViolated bool) correlate.Observation {
		return correlate.Observation{
			InvID: c.cands[0].Inv.ID(), FailureID: c.id,
			Checks: checks, Violations: violations, LastViolated: lastViolated,
		}
	}
	cases := []struct {
		node   string
		obs    []correlate.Observation
		reason string // "" = honest, must not be quarantined
	}{
		{"honest", []correlate.Observation{tally(3, 1, true)}, ""},
		{"no-checks", []correlate.Observation{tally(0, 0, false)}, "tallies no checks"},
		{"over-violated", []correlate.Observation{tally(1, 2, true)}, "claims 2 violations in 1 checks"},
		{"phantom-last", []correlate.Observation{tally(2, 0, true)}, "violated last check but no violations"},
		{"repeated", []correlate.Observation{tally(1, 0, false), tally(1, 1, true)}, "repeated in one report"},
	}
	for _, tc := range cases {
		m.processReport(&RunReport{NodeID: tc.node, Seq: c.phaseSeq, Outcome: uint8(vm.OutcomeExit), Observations: tc.obs})
		got := m.Quarantined()[tc.node]
		switch {
		case tc.reason == "" && got != "":
			t.Errorf("%s: honest tally quarantined: %s", tc.node, got)
		case tc.reason != "" && !strings.Contains(got, tc.reason):
			t.Errorf("%s: quarantine reason %q, want one naming %q", tc.node, got, tc.reason)
		}
	}
}

func TestLearnShardsCoverImage(t *testing.T) {
	app := webapp.MustBuild()
	m, err := NewManager(ManagerConfig{Image: app.Image, LearnShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi []uint32
	for _, id := range []string{"a", "b", "c"} {
		nodeSide, mgrSide := Pipe()
		go func() { _ = m.Serve(mgrSide) }()
		n := NewNode(id, app.Image, nodeSide)
		if err := n.Connect(); err != nil {
			t.Fatal(err)
		}
		d := n.Directives()
		lo = append(lo, d.LearnLo)
		hi = append(hi, d.LearnHi)
	}
	// Shards tile the code range: consecutive, starting at the base, and
	// jointly covering the end.
	if lo[0] != app.Image.Base {
		t.Errorf("first shard starts at %#x", lo[0])
	}
	for i := 1; i < 3; i++ {
		if lo[i] != hi[i-1] {
			t.Errorf("shard %d not contiguous: [%#x,%#x) after [%#x,%#x)", i, lo[i], hi[i], lo[i-1], hi[i-1])
		}
	}
	if hi[2] < app.Image.End() {
		t.Errorf("shards end at %#x, image ends at %#x", hi[2], app.Image.End())
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	rep := RunReport{NodeID: "x", Seq: 7, Outcome: 1, Failure: &FailureInfo{PC: 0x42, Stack: []uint32{1, 2}}}
	env, err := NewEnvelope(MsgRunReport, rep)
	if err != nil {
		t.Fatal(err)
	}
	var got RunReport
	if err := decodePayload(env.Payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.NodeID != "x" || got.Seq != 7 || got.Failure.PC != 0x42 || len(got.Failure.Stack) != 2 {
		t.Errorf("round trip lost data: %+v", got)
	}
}
