package core

import (
	"reflect"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// TestPlaceRequestCtxDoesNotPerturb is the acceptance gate for
// request-scoped observability: a caller-owned span trace carrying the
// request's ID and an obs.Tag-stamped event stream must leave the
// placement byte-identical to an unscoped run, while every solver
// event carries the ID and the spans land in the caller's trace.
func TestPlaceRequestCtxDoesNotPerturb(t *testing.T) {
	const id = "req-000001-00000000cafebabe"
	for _, w := range []int{1, 4} {
		plain, err := Place(determinismProblem(t), Options{
			Merging: true, TimeLimit: 60 * time.Second, Workers: w,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		var rec obs.Recorder
		tr := obs.NewTrace()
		tr.SetID(id)
		scoped, err := Place(determinismProblem(t), Options{
			Merging: true, TimeLimit: 60 * time.Second, Workers: w,
			Trace: tr, SolverSink: obs.Tag(id, &rec),
		})
		if err != nil {
			t.Fatalf("workers=%d scoped: %v", w, err)
		}
		plain.Stats.SolveTime = 0
		scoped.Stats.SolveTime = 0
		if !reflect.DeepEqual(plain, scoped) {
			t.Fatalf("workers=%d: request-scoped placement differs from unscoped:\n%+v\nvs\n%+v",
				w, plain, scoped)
		}
		events := rec.Events()
		if len(events) == 0 {
			t.Fatalf("workers=%d: sink saw no events", w)
		}
		for i, e := range events {
			if e.TraceID != id {
				t.Fatalf("workers=%d: event %d missing trace ID: %+v", w, i, e)
			}
		}
		if last := events[len(events)-1]; last.Kind != obs.KindPhase || last.Phase != "done" {
			t.Fatalf("workers=%d: stream not closed by Place's done phase event: %+v", w, last)
		}
		// The caller's trace collected the phase spans, under its ID.
		if len(tr.Roots()) != 1 || tr.Roots()[0].Name() != "place" || tr.ID() != id {
			t.Fatalf("workers=%d: trace %q roots = %v", w, tr.ID(), tr.Roots())
		}
	}
}
