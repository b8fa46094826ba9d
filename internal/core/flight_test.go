package core

import (
	"reflect"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// TestPlaceFlightRecorderDoesNotPerturb is the pipeline-level
// introspection invariant: running the full placement with a flight
// recorder, a live progress cell, and a trace-ID tag on the event
// stream produces the identical placement — assignments, merges, objective,
// and search effort — as a bare run, for Workers ∈ {1, 2, 8}.
func TestPlaceFlightRecorderDoesNotPerturb(t *testing.T) {
	for _, fx := range determinismFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 8} {
				bare, err := Place(fx.build(t), Options{
					Merging: true, TimeLimit: 60 * time.Second, Workers: w,
				})
				if err != nil {
					t.Fatalf("workers=%d bare: %v", w, err)
				}
				rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 512})
				var prog obs.Progress
				inst, err := Place(fx.build(t), Options{
					Merging: true, TimeLimit: 60 * time.Second, Workers: w,
					SolverSink: obs.Tag("req-000051", obs.Multi(rec, &prog)),
				})
				if err != nil {
					t.Fatalf("workers=%d instrumented: %v", w, err)
				}
				if inst.Status != bare.Status || inst.TotalRules != bare.TotalRules || inst.Objective != bare.Objective {
					t.Fatalf("workers=%d: summary differs with recorder: (%v, %d rules, obj %g) vs (%v, %d rules, obj %g)",
						w, inst.Status, inst.TotalRules, inst.Objective, bare.Status, bare.TotalRules, bare.Objective)
				}
				if !reflect.DeepEqual(inst.Assign, bare.Assign) {
					t.Errorf("workers=%d: rule assignments differ with recorder attached", w)
				}
				if !reflect.DeepEqual(inst.MergedAt, bare.MergedAt) {
					t.Errorf("workers=%d: merge placements differ with recorder attached", w)
				}
				if inst.Stats.BnBNodes != bare.Stats.BnBNodes {
					t.Errorf("workers=%d: node count %d with recorder, %d without", w, inst.Stats.BnBNodes, bare.Stats.BnBNodes)
				}
				d := rec.Dump()
				if d.Seen == 0 {
					t.Errorf("workers=%d: flight recorder saw no solver events", w)
				}
				s, ok := prog.Snapshot()
				if !ok || !s.Done {
					t.Errorf("workers=%d: no terminal progress snapshot: %+v", w, s)
				}
			}
		})
	}
}

// TestPlaceSearchProfileStats checks the new Stats fields survive the
// core passthrough: RootGap is computed for ILP solves and sentinel for
// the SAT backend.
func TestPlaceSearchProfileStats(t *testing.T) {
	pl, err := Place(determinismProblem(t), Options{Merging: true, TimeLimit: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stats.RootGap < 0 {
		t.Errorf("ILP placement RootGap = %g, want >= 0", pl.Stats.RootGap)
	}
	if pl.Stats.LastIncumbentAtNode < 0 || pl.Stats.LastIncumbentAtNode > pl.Stats.BnBNodes {
		t.Errorf("LastIncumbentAtNode = %d outside [0, %d]", pl.Stats.LastIncumbentAtNode, pl.Stats.BnBNodes)
	}

	sat, err := Place(determinismProblem(t), Options{
		Backend: BackendSAT, SatisfyOnly: true, TimeLimit: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sat.Stats.RootGap != -1 {
		t.Errorf("SAT placement RootGap = %g, want -1 sentinel (no LP relaxation)", sat.Stats.RootGap)
	}
}

// snapshotLog is a Sink that forwards each event to a progress cell and
// logs every snapshot the event publishes.
type snapshotLog struct {
	prog  *obs.Progress
	snaps []obs.ProgressSnapshot
	solve int // solver done events seen
}

func (l *snapshotLog) Event(e obs.Event) {
	l.prog.Event(e)
	if e.Kind == obs.KindDone {
		l.solve++
	}
	if s, ok := l.prog.Snapshot(); ok && (len(l.snaps) == 0 || s != l.snaps[len(l.snaps)-1]) {
		l.snaps = append(l.snaps, s)
	}
}

// TestPlaceProgressDoneOnlyAtEnd: a place that runs several solves — a
// decomposed place, and one whose stitch is rejected and falls back to
// the joint solve — marks its progress Done only on the last snapshot,
// once the answer is final, not at the first sub-solve's done event.
func TestPlaceProgressDoneOnlyAtEnd(t *testing.T) {
	for _, fx := range []struct {
		name  string
		build func(*testing.T) *Problem
	}{
		{"decomposed", func(t *testing.T) *Problem {
			prob := determinismProblem(t)
			prob.Policies = prob.Policies[:2]
			return prob
		}},
		{"fallback", sharedBottleneckProblem},
	} {
		t.Run(fx.name, func(t *testing.T) {
			log := &snapshotLog{prog: &obs.Progress{}}
			pl, err := Place(fx.build(t), Options{TimeLimit: 60 * time.Second, SolverSink: log})
			if err != nil {
				t.Fatal(err)
			}
			if log.solve < 2 {
				t.Fatalf("fixture ran %d solves, want several", log.solve)
			}
			for i, s := range log.snaps {
				if last := i == len(log.snaps)-1; s.Done != last {
					t.Fatalf("snapshot %d of %d: Done=%v: %+v", i+1, len(log.snaps), s.Done, s)
				}
			}
			final := log.snaps[len(log.snaps)-1]
			//lint:exactfloat the snapshot copies the objective, it does not recompute it
			if final.Phase != "done" || final.Nodes != pl.Stats.BnBNodes || final.Incumbent != pl.Objective {
				t.Fatalf("final snapshot %+v disagrees with placement (%d nodes, obj %g)",
					final, pl.Stats.BnBNodes, pl.Objective)
			}
		})
	}
}
