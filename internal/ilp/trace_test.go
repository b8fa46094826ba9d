package ilp

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// traceOf solves a fixture with a recorder attached and returns the
// solution plus the normalized (timing-stripped) event sequence.
func traceOf(t *testing.T, m *Model, workers int) (Solution, []obs.Event) {
	t.Helper()
	var rec obs.Recorder
	sol, err := Solve(m, Options{TimeLimit: 60 * time.Second, Workers: workers, Sink: &rec})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	for i := range events {
		events[i] = events[i].Normalize()
	}
	return sol, events
}

// TestTraceDeterministic asserts the tracing half of the determinism
// contract: the same model traced twice yields identical event
// sequences modulo timing fields, and Workers ∈ {2, 8} yield the same
// sequence too, phase events included (events are emitted only from
// the solver's sequential sections).
func TestTraceDeterministic(t *testing.T) {
	_, base := traceOf(t, parallelFixture(5, 16), 1)
	if len(base) == 0 {
		t.Fatal("no events recorded")
	}
	_, again := traceOf(t, parallelFixture(5, 16), 1)
	if !reflect.DeepEqual(base, again) {
		t.Fatalf("same model traced twice differs:\n%v\nvs\n%v", base, again)
	}
	// The second fixture branches, so its stream has a search phase.
	for _, seed := range []int64{5, 7} {
		n := 16 + int(seed-5)
		_, one := traceOf(t, parallelFixture(seed, n), 1)
		for _, w := range []int{2, 8} {
			_, par := traceOf(t, parallelFixture(seed, n), w)
			if !reflect.DeepEqual(one, par) {
				t.Fatalf("fixture %d: workers=1 vs workers=%d traces differ:\n%v\nvs\n%v", seed, w, one, par)
			}
		}
	}
}

// TestPhaseEvents pins the phase events of a branching solve: presolve,
// root_lp, cuts and search open in that order, each carrying the
// running totals at its transition, and the done event closes the
// stream with totals that match Stats.
func TestPhaseEvents(t *testing.T) {
	sol, events := traceOf(t, parallelFixture(7, 18), 2)
	var phases []obs.Event
	for _, e := range events {
		if e.Kind == obs.KindPhase {
			phases = append(phases, e)
		}
	}
	var names []string
	for _, e := range phases {
		names = append(names, e.Phase)
	}
	if want := []string{"presolve", "root_lp", "cuts", "search"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("phases %v, want %v", names, want)
	}
	if phases[0].Iters != 0 || phases[1].Fixes != sol.Stats.PresolveFix {
		t.Errorf("presolve/root_lp totals %+v / %+v", phases[0], phases[1])
	}
	if it := phases[2].Iters; it <= 0 || it > sol.Stats.SimplexIters || phases[2].Refactors <= 0 {
		t.Errorf("cuts phase carries root LP effort %d iters / %d refactors; solve total %d iters",
			it, phases[2].Refactors, sol.Stats.SimplexIters)
	}
	if phases[3].Node != 1 || phases[3].Cuts != sol.Stats.CutsAdded {
		t.Errorf("search phase %+v, want node 1 and %d cuts", phases[3], sol.Stats.CutsAdded)
	}
	done := events[len(events)-1]
	if done.Kind != obs.KindDone || done.Node != sol.Stats.Nodes || done.Iters != sol.Stats.SimplexIters ||
		done.Refactors != sol.Stats.LURefactors || done.Fixes != sol.Stats.PresolveFix ||
		done.Cuts != sol.Stats.CutsAdded {
		t.Errorf("done event %+v disagrees with stats %+v", done, sol.Stats)
	}
}

// TestTracingDoesNotPerturbSolve asserts the other half: a traced solve
// returns a Solution (stats included) deeply equal to an untraced one,
// across worker counts.
func TestTracingDoesNotPerturbSolve(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		plain, err := Solve(parallelFixture(9, 18), Options{TimeLimit: 60 * time.Second, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		traced, _ := traceOf(t, parallelFixture(9, 18), w)
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("workers=%d: traced solve differs from untraced:\n%+v\nvs\n%+v", w, plain, traced)
		}
	}
}

// TestStatsOutcomeAccounting asserts the Stats invariant: per-outcome
// counters sum to Nodes, and the trace's node events agree with Stats.
func TestStatsOutcomeAccounting(t *testing.T) {
	for _, seed := range []int64{3, 7, 11, 42} {
		sol, events := traceOf(t, parallelFixture(seed, 16), 2)
		st := sol.Stats
		sum := st.Branched + st.PrunedBound + st.PrunedInfeasible + st.IntegralLeaves + st.LostSubtrees
		if sum != st.Nodes {
			t.Fatalf("seed %d: outcome counters sum to %d, Stats.Nodes = %d (%+v)", seed, sum, st.Nodes, st)
		}
		nodeEvents, skips, incumbents := 0, 0, 0
		var done *obs.Event
		for i, e := range events {
			switch e.Kind {
			case obs.KindNode:
				nodeEvents++
			case obs.KindSkip:
				skips++
			case obs.KindIncumbent:
				incumbents++
			case obs.KindDone:
				done = &events[i]
			}
		}
		if nodeEvents != st.Nodes {
			t.Fatalf("seed %d: %d node events, Stats.Nodes = %d", seed, nodeEvents, st.Nodes)
		}
		if skips != st.PrunedStale {
			t.Fatalf("seed %d: %d skip events, Stats.PrunedStale = %d", seed, skips, st.PrunedStale)
		}
		if incumbents != st.Incumbents {
			t.Fatalf("seed %d: %d incumbent events, Stats.Incumbents = %d", seed, incumbents, st.Incumbents)
		}
		if done == nil {
			t.Fatalf("seed %d: no done event", seed)
		}
		//lint:exactfloat the done event must carry the exact Stats values, not approximations
		if done.Gap != st.Gap || done.BestBound != st.BestBound {
			t.Fatalf("seed %d: done event gap/bound (%g, %g) != Stats (%g, %g)",
				seed, done.Gap, done.BestBound, st.Gap, st.BestBound)
		}
		if done.Reason != st.StopReason.String() || done.Outcome != sol.Status.String() {
			t.Fatalf("seed %d: done event %q/%q != Stats %q/%q",
				seed, done.Outcome, done.Reason, sol.Status, st.StopReason)
		}
	}
}

// TestTraceJSONLRoundTrip streams a solve through the JSONL writer and
// checks the re-read trace matches the in-memory recording.
func TestTraceJSONLRoundTrip(t *testing.T) {
	var rec obs.Recorder
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	_, err := Solve(parallelFixture(7, 14),
		Options{TimeLimit: 60 * time.Second, Workers: 2, Sink: obs.Multi(&rec, w)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec.Events()) {
		t.Fatalf("JSONL round trip differs from recorder (%d vs %d events)", len(got), len(rec.Events()))
	}
}

// TestStopReasonNodeLimit asserts the node limit is reported as the stop
// reason and the outcome accounting stays intact when the search is cut.
func TestStopReasonNodeLimit(t *testing.T) {
	sol, err := Solve(parallelFixture(11, 20), Options{NodeLimit: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Stats
	if st.StopReason != StopNodeLimit {
		t.Fatalf("StopReason = %v, want %v (status %v)", st.StopReason, StopNodeLimit, sol.Status)
	}
	if st.Nodes > 3 {
		t.Fatalf("Nodes = %d exceeds the limit", st.Nodes)
	}
	sum := st.Branched + st.PrunedBound + st.PrunedInfeasible + st.IntegralLeaves + st.LostSubtrees
	if sum != st.Nodes {
		t.Fatalf("outcome counters sum to %d, Nodes = %d (%+v)", sum, st.Nodes, st)
	}
}

// TestStopReasonDeadline asserts a root-LP deadline expiry is reported
// as StopDeadline with an undefined gap.
func TestStopReasonDeadline(t *testing.T) {
	sol, err := Solve(parallelFixture(13, 24), Options{TimeLimit: time.Nanosecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != LimitReached {
		t.Skipf("solve finished before the 1ns deadline fired (status %v)", sol.Status)
	}
	if sol.Stats.StopReason != StopDeadline {
		t.Fatalf("StopReason = %v, want %v", sol.Stats.StopReason, StopDeadline)
	}
	//lint:exactfloat -1 is an exact sentinel, not a computed value
	if sol.Stats.Gap != -1 {
		t.Fatalf("Gap = %v, want the -1 sentinel", sol.Stats.Gap)
	}
}

// TestGapProvenOptimal asserts a clean optimal solve reports gap 0 with
// BestBound equal to the objective.
func TestGapProvenOptimal(t *testing.T) {
	sol, err := Solve(parallelFixture(3, 12), Options{TimeLimit: 60 * time.Second, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	//lint:exactfloat proven optimality must set the exact 0/objective values
	if sol.Stats.Gap != 0 || sol.Stats.BestBound != sol.Objective {
		t.Fatalf("proven solve: Gap = %v, BestBound = %v, Objective = %v",
			sol.Stats.Gap, sol.Stats.BestBound, sol.Objective)
	}
	if sol.Stats.StopReason != StopNone {
		t.Fatalf("StopReason = %v, want %v", sol.Stats.StopReason, StopNone)
	}
}
