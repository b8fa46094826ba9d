package traceview

import (
	"bytes"
	"strings"
	"testing"

	"rulefit/internal/obs"
)

func sampleEvents() []obs.Event {
	return []obs.Event{
		{Kind: obs.KindPhase, Phase: "presolve", BranchVar: -1, Gap: -1},
		{Kind: obs.KindPhase, Phase: "root_lp", Fixes: 2, BranchVar: -1, Gap: -1},
		{Kind: obs.KindRootLP, Bound: 3.5, Iters: 12, Refactors: 1, Gap: -1},
		{Kind: obs.KindPhase, Phase: "search", Node: 1, Fixes: 2, Iters: 12, Refactors: 1, BestBound: 4, BranchVar: -1, Gap: -1},
		{Kind: obs.KindNode, Node: 1, Depth: 0, Outcome: obs.OutcomeBranched, Bound: 4, BranchVar: 1, Frac: 0.5, Iters: 12, Gap: -1},
		{Kind: obs.KindNode, Node: 2, Parent: 1, Depth: 1, Outcome: obs.OutcomeIntegral, Bound: 5, BranchVar: -1, Iters: 3, Gap: -1},
		{Kind: obs.KindIncumbent, Node: 2, Incumbent: 5, Gap: -1},
		{Kind: obs.KindGap, Node: 2, Incumbent: 5, BestBound: 4, Gap: 0.2},
		{Kind: obs.KindNode, Node: 3, Parent: 1, Depth: 1, Outcome: obs.OutcomeBound, Bound: 5, BranchVar: -1, Iters: 2, Gap: -1},
		{Kind: obs.KindSkip, Node: 0, Bound: 6, Gap: -1},
		{Kind: obs.KindDone, Node: 3, Outcome: "optimal", Reason: "none", Fixes: 2, Incumbent: 5, BestBound: 5, Gap: 0},
	}
}

func TestOfAggregates(t *testing.T) {
	s := Of(sampleEvents())
	if s.Nodes != 3 || s.StaleSkips != 1 || s.Incumbents != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.Outcomes[obs.OutcomeBranched] != 1 || s.Outcomes[obs.OutcomeIntegral] != 1 || s.Outcomes[obs.OutcomeBound] != 1 {
		t.Fatalf("outcomes wrong: %v", s.Outcomes)
	}
	if s.SimplexIters != 12+12+3+2 || s.LURefactors != 1 || s.PresolveFixes != 2 {
		t.Fatalf("effort wrong: %+v", s)
	}
	if len(s.GapCurve) != 1 || s.GapCurve[0].Gap != 0.2 {
		t.Fatalf("gap curve wrong: %+v", s.GapCurve)
	}
	if s.FinalStatus != "optimal" || s.StopReason != "none" || s.FinalGap != 0 || s.MaxDepth != 1 {
		t.Fatalf("final wrong: %+v", s)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("consistent trace failed Check: %v", err)
	}
}

func TestCheckCatchesBadAccounting(t *testing.T) {
	ev := sampleEvents()
	s := Of(ev)
	s.Nodes++ // outcome counts now undercount the node total
	if err := s.Check(); err == nil {
		t.Fatal("Check missed an outcome/node mismatch")
	}
	s2 := Of(ev[:len(ev)-1]) // no done event
	if err := s2.Check(); err == nil {
		t.Fatal("Check missed a missing done event")
	}
}

func TestSummarizeFromJSONL(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	for _, e := range sampleEvents() {
		w.Event(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 3 || !s.HasDone() {
		t.Fatalf("summarize wrong: %+v", s)
	}
	out := s.Render()
	for _, want := range []string{"pruned_bound", "gap convergence", "status=optimal", "stop=none"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestPartialDumpNamesPhase: a flight dump cut mid-search passes -check
// (phase events are part of the stream) and its summary names the
// phase the solve was in; a phase event naming no known phase fails.
func TestPartialDumpNamesPhase(t *testing.T) {
	ev := append([]obs.Event{{Kind: obs.KindFlightMeta, Node: 5, Seen: 40}}, sampleEvents()[3:6]...)
	s := Of(ev)
	if err := s.Check(); err != nil {
		t.Fatalf("partial dump with phase events failed Check: %v", err)
	}
	if s.Phase != "search" || !strings.Contains(s.Render(), "dump ended in phase search") {
		t.Fatalf("summary does not name the phase (%q):\n%s", s.Phase, s.Render())
	}
	bad := Of(append(sampleEvents(), obs.Event{Kind: obs.KindPhase, Phase: "bogus"}))
	if err := bad.Check(); err == nil {
		t.Fatal("Check accepted an unknown phase")
	}
}
