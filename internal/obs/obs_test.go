package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderAndMulti(t *testing.T) {
	var a, b Recorder
	s := Multi(nil, &a, nil, &b)
	if s == nil {
		t.Fatal("Multi with live sinks returned nil")
	}
	e := Event{Kind: KindNode, Node: 1, Outcome: OutcomeBranched, Bound: 2.5}
	s.Event(e)
	if got := a.Events(); len(got) != 1 || got[0] != e {
		t.Fatalf("recorder a got %v", got)
	}
	if got := b.Events(); len(got) != 1 || got[0] != e {
		t.Fatalf("recorder b got %v", got)
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi of all-nil sinks should be nil so the solver fast path applies")
	}
	if Multi(&a) != Sink(&a) {
		t.Fatal("Multi of one sink should return it unwrapped")
	}
}

func TestNormalizeZeroesTimingOnly(t *testing.T) {
	e := Event{Kind: KindNode, Node: 3, Bound: 1.5, TimeMS: 12.5}
	n := e.Normalize()
	if n.TimeMS != 0 {
		t.Fatal("Normalize kept TimeMS")
	}
	e.TimeMS = 0
	if n != e {
		t.Fatalf("Normalize changed non-timing fields: %+v vs %+v", n, e)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	events := []Event{
		{Kind: KindPhase, Phase: "root_lp", Fixes: 4, Gap: -1},
		{Kind: KindNode, Node: 1, Depth: 0, Outcome: OutcomeBranched, Bound: 3.25, BranchVar: 2, Frac: 0.5, Iters: 7, Gap: -1},
		{Kind: KindDone, Node: 5, Outcome: "optimal", Reason: "none", Incumbent: 4, BestBound: 4, Gap: 0, TimeMS: 1.25},
	}
	for _, e := range events {
		w.Event(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

func TestJSONLWriterConcurrentLinesIntact(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	var wg sync.WaitGroup
	const writers, per = 8, 50
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Event(Event{Kind: KindNode, Node: g*per + i + 1})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("interleaved write corrupted a line: %v", err)
	}
	if len(got) != writers*per {
		t.Fatalf("got %d events, want %d", len(got), writers*per)
	}
}

func TestSpanTreeAndNilSafety(t *testing.T) {
	tr := NewTrace()
	root := tr.Span("place")
	child := root.Child("solve")
	child.SetCount("nodes", 42)
	child.End()
	root.End()
	root.End() // second End keeps the first measurement

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "place" {
		t.Fatalf("roots = %v", roots)
	}
	kids := roots[0].Children()
	if len(kids) != 1 || kids[0].Name() != "solve" {
		t.Fatalf("children = %v", kids)
	}
	if v, ok := kids[0].Counter("nodes"); !ok || v != 42 {
		t.Fatalf("counter nodes = %d, %v", v, ok)
	}
	if !strings.Contains(tr.Render(), "nodes=42") {
		t.Fatalf("render missing counter:\n%s", tr.Render())
	}

	// The nil trace and nil span must be safe no-ops everywhere.
	var nilTrace *Trace
	sp := nilTrace.Span("x")
	if sp != nil {
		t.Fatal("nil trace produced a live span")
	}
	sp.Child("y").SetCount("n", 1)
	sp.End()
	if sp.Wall() != 0 || sp.AllocBytes() != 0 || sp.Name() != "" || sp.Children() != nil {
		t.Fatal("nil span accessors not zero")
	}
	if _, ok := sp.Counter("n"); ok {
		t.Fatal("nil span has a counter")
	}
	if nilTrace.Render() != "" || nilTrace.Roots() != nil {
		t.Fatal("nil trace accessors not zero")
	}
}

func TestSpanMeasuresWall(t *testing.T) {
	tr := NewTrace()
	sp := tr.Span("sleep")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if sp.Wall() < time.Millisecond {
		t.Fatalf("wall = %v, want >= 1ms", sp.Wall())
	}
}

func TestMetricsRecordAndEncoders(t *testing.T) {
	var m Metrics
	m.RecordSolve(SolveSample{
		Status: "optimal", Wall: 1500 * time.Microsecond,
		Nodes: 5, SimplexIters: 40, LURefactors: 2, PresolveFixes: 3,
		Incumbents: 1, Branched: 2, PrunedBound: 1, PrunedInfeas: 1,
		IntegralLeaves: 1, LostSubtrees: 0, PrunedStale: 1,
	})
	m.RecordSolve(SolveSample{Status: "limit", Nodes: 10, Branched: 10})
	s := m.Snapshot()
	if s.Solves != 2 || s.SolvesOptimal != 1 || s.SolvesLimit != 1 {
		t.Fatalf("solve counts wrong: %+v", s)
	}
	if s.Nodes != 15 || s.Branched != 12 || s.PrunedStale != 1 {
		t.Fatalf("node counts wrong: %+v", s)
	}
	if s.SolveWallSec < 0.001 || s.SolveWallSec > 0.01 {
		t.Fatalf("wall = %v", s.SolveWallSec)
	}

	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"# TYPE rulefit_solves_total counter",
		`rulefit_solves_total{status="optimal"} 1`,
		`rulefit_node_outcomes_total{outcome="branched"} 12`,
		"rulefit_bnb_nodes_total 15",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"nodes": 15`) {
		t.Fatalf("json output missing nodes:\n%s", js.String())
	}
}
