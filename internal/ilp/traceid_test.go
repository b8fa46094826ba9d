package ilp

import (
	"reflect"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// TestTraceIDStampsEveryEvent asserts the request-scoping contract at
// the solver layer: a sink wrapped in obs.Tag sees the trace ID on
// every emitted event, phase events included, and stamping changes
// nothing else — neither the solution nor any other event field.
func TestTraceIDStampsEveryEvent(t *testing.T) {
	const id = "req-000042-00000000deadbeef"
	solve := func(traceID string) (Solution, []obs.Event) {
		var rec obs.Recorder
		sol, err := Solve(parallelFixture(5, 16), Options{
			TimeLimit: 60 * time.Second, Workers: 2, Sink: obs.Tag(traceID, &rec),
		})
		if err != nil {
			t.Fatal(err)
		}
		events := rec.Events()
		for i := range events {
			events[i] = events[i].Normalize()
		}
		return sol, events
	}
	plainSol, plain := solve("")
	taggedSol, tagged := solve(id)
	if !reflect.DeepEqual(plainSol, taggedSol) {
		t.Fatalf("trace ID perturbed the solution:\n%+v\nvs\n%+v", plainSol, taggedSol)
	}
	if len(tagged) == 0 || len(tagged) != len(plain) {
		t.Fatalf("event counts differ: %d tagged vs %d plain", len(tagged), len(plain))
	}
	for i, e := range tagged {
		if e.TraceID != id {
			t.Fatalf("event %d missing trace ID: %+v", i, e)
		}
		e.TraceID = ""
		if e != plain[i] {
			t.Fatalf("event %d differs beyond TraceID:\n%+v\nvs\n%+v", i, e, plain[i])
		}
	}
}

// TestTraceIDWithoutSinkKeepsFastPath asserts a trace ID alone does not
// enable event emission: tagging a nil sink yields a nil sink, so the
// solve stays on the disabled-sink fast path and still succeeds.
func TestTraceIDWithoutSinkKeepsFastPath(t *testing.T) {
	plain, err := Solve(parallelFixture(3, 12), Options{TimeLimit: 60 * time.Second, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := Solve(parallelFixture(3, 12), Options{
		TimeLimit: 60 * time.Second, Workers: 1, Sink: obs.Tag("req-000001-0123456789abcdef", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, tagged) {
		t.Fatalf("sinkless trace ID perturbed the solution:\n%+v\nvs\n%+v", plain, tagged)
	}
}
