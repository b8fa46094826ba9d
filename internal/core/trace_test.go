package core

import (
	"reflect"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// TestPlaceTracingDoesNotPerturb is the acceptance gate for the
// observability layer at the pipeline level: with a solver sink and a
// span trace attached, the placement (assignments, merges, objective,
// and the solver-effort stats) must be byte-identical to an untraced
// run, across worker counts.
func TestPlaceTracingDoesNotPerturb(t *testing.T) {
	for _, fx := range determinismFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 8} {
				plain, err := Place(fx.build(t), Options{
					Merging: true, TimeLimit: 60 * time.Second, Workers: w,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				var rec obs.Recorder
				tr := obs.NewTrace()
				traced, err := Place(fx.build(t), Options{
					Merging: true, TimeLimit: 60 * time.Second, Workers: w,
					Trace: tr, SolverSink: &rec,
				})
				if err != nil {
					t.Fatalf("workers=%d traced: %v", w, err)
				}
				// SolveTime is wall clock; everything else must match.
				plain.Stats.SolveTime = 0
				traced.Stats.SolveTime = 0
				if !reflect.DeepEqual(plain, traced) {
					t.Fatalf("workers=%d: traced placement differs from untraced:\n%+v\nvs\n%+v",
						w, plain, traced)
				}
				if len(rec.Events()) == 0 {
					t.Fatalf("workers=%d: sink saw no events", w)
				}
				if len(tr.Roots()) != 1 || tr.Roots()[0].Name() != "place" {
					t.Fatalf("workers=%d: trace roots = %v", w, tr.Roots())
				}
			}
		})
	}
}

// TestPlaceTraceEventsDeterministic asserts the event stream surfaced
// through core, phase events and Place's closing done included, is
// identical (modulo timing) across worker counts — for a joint merged
// place and for a decomposed place that falls back to a branching
// joint solve.
func TestPlaceTraceEventsDeterministic(t *testing.T) {
	for _, fx := range []struct {
		name  string
		build func(*testing.T) *Problem
		opts  Options
	}{
		{"joint", determinismProblem, Options{Merging: true}},
		{"fallback", func(t *testing.T) *Problem { return fatTreeProblem(t, 8, 20) }, Options{}},
	} {
		events := func(workers int) []obs.Event {
			var rec obs.Recorder
			opts := fx.opts
			opts.TimeLimit, opts.Workers, opts.SolverSink = 60*time.Second, workers, &rec
			if _, err := Place(fx.build(t), opts); err != nil {
				t.Fatal(err)
			}
			evs := rec.Events()
			for i := range evs {
				evs[i] = evs[i].Normalize()
			}
			return evs
		}
		seq := events(1)
		for _, w := range []int{2, 8} {
			if par := events(w); !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s: workers=1 vs workers=%d event streams differ (%d vs %d events)",
					fx.name, w, len(seq), len(par))
			}
		}
	}
}

// TestPlaceStatsCarrySolverBreakdown asserts the solver's per-outcome
// counters and proof state survive the core Stats copy.
func TestPlaceStatsCarrySolverBreakdown(t *testing.T) {
	pl, err := Place(determinismProblem(t), Options{Merging: true, TimeLimit: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats
	sum := st.Branched + st.PrunedBound + st.PrunedInfeasible + st.IntegralLeaves + st.LostSubtrees
	if sum != st.BnBNodes {
		t.Fatalf("outcome counters sum to %d, BnBNodes = %d (%+v)", sum, st.BnBNodes, st)
	}
	if pl.Status == StatusOptimal {
		//lint:exactfloat proven optimality must surface the exact 0 gap
		if st.Gap != 0 || st.BestBound != pl.Objective {
			t.Fatalf("optimal placement: Gap = %v, BestBound = %v, Objective = %v",
				st.Gap, st.BestBound, pl.Objective)
		}
		if st.StopReason.String() != "none" {
			t.Fatalf("optimal placement: StopReason = %v", st.StopReason)
		}
	}
	if st.Incumbents < 1 {
		t.Fatalf("Incumbents = %d, want >= 1", st.Incumbents)
	}
}
