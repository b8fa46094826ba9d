package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHistogramCumulativeSnapshot(t *testing.T) {
	h := NewHistogram(HistogramOpts{Start: 1, Factor: 2, Count: 3})
	for _, v := range []float64{0.5, 1, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Sum < 104.4 || s.Sum > 104.6 {
		t.Fatalf("sum = %v, want 104.5", s.Sum)
	}
	want := []BucketCount{
		{LE: 1, Count: 2}, // 0.5 and 1 (le is inclusive)
		{LE: 2, Count: 2},
		{LE: 4, Count: 3}, // + 3
		{LE: math.Inf(1), Count: 4},
	}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	// Cumulative: monotone nondecreasing, final bucket equals count.
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].Count < s.Buckets[i-1].Count {
			t.Fatalf("buckets not cumulative at %d: %+v", i, s.Buckets)
		}
	}
}

func TestHistogramZeroValueUsesDefaultLayout(t *testing.T) {
	var h Histogram
	h.Observe(0.002)
	s := h.Snapshot()
	if len(s.Buckets) != 17 { // 16 finite + Inf
		t.Fatalf("bucket count = %d, want 17", len(s.Buckets))
	}
	if s.Count != 1 || s.Buckets[len(s.Buckets)-1].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestBucketCountJSONRoundTrip(t *testing.T) {
	in := []BucketCount{{LE: 0.5, Count: 3}, {LE: math.Inf(1), Count: 7}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"+Inf"`) {
		t.Fatalf("marshal lost +Inf: %s", data)
	}
	var out []BucketCount
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v vs %+v", in, out)
	}
}

func TestLabeledCounterSortedSnapshot(t *testing.T) {
	var c LabeledCounter
	c.Add(1, "optimal", "none")
	c.Add(2, "limit", "time_limit")
	c.Add(1, "optimal", "none")
	got := c.Snapshot()
	want := []LabeledCount{
		{Labels: []string{"limit", "time_limit"}, Value: 2},
		{Labels: []string{"optimal", "none"}, Value: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Add(3) != 3 || g.Add(-1) != 2 || g.Value() != 2 {
		t.Fatal("gauge arithmetic wrong")
	}
	g.Set(0)
	if g.Value() != 0 {
		t.Fatal("Set(0) did not clear")
	}
}

func TestPrometheusExpositionConformance(t *testing.T) {
	var m Metrics
	m.RecordSolve(SolveSample{Status: "optimal", Wall: 2 * time.Millisecond, Nodes: 9, SimplexIters: 120})
	m.RecordSolve(SolveSample{Status: "limit", Wall: 40 * time.Millisecond, Nodes: 500, SimplexIters: 9000})
	m.RecordRequest(RequestSample{Status: "optimal", Placed: true, InstalledRules: 42})
	m.RecordRequest(RequestSample{Status: "shed"})
	m.InFlight().Add(1)
	m.QueueDepth().Add(2)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := CheckPrometheusText(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition not conformant: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE rulefit_solve_wall_seconds histogram",
		`rulefit_solve_wall_seconds_bucket{le="+Inf"} 2`,
		"rulefit_solve_wall_seconds_count 2",
		`rulefit_solve_nodes_bucket{le="+Inf"} 2`,
		`rulefit_installed_rules_bucket{le="+Inf"} 1`,
		`rulefit_requests_total{status="optimal",stop_reason="none"} 1`,
		`rulefit_requests_total{status="shed",stop_reason="none"} 1`,
		"rulefit_in_flight_requests 1",
		"rulefit_request_queue_depth 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCheckPrometheusTextRejections(t *testing.T) {
	cases := map[string]string{
		"no TYPE":  "foo 1\n",
		"bad name": "# TYPE 0bad counter\n0bad 1\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n",
		"missing +Inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"+Inf != count": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n",
		"bad value": "# TYPE c counter\nc pizza\n",
	}
	for name, payload := range cases {
		if err := CheckPrometheusText(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted invalid payload:\n%s", name, payload)
		}
	}
	valid := "# HELP c a counter\n# TYPE c counter\nc 1\n"
	if err := CheckPrometheusText(strings.NewReader(valid)); err != nil {
		t.Errorf("rejected valid payload: %v", err)
	}
}

func TestMetricsReset(t *testing.T) {
	var m Metrics
	m.RecordSolve(SolveSample{Status: "optimal", Wall: time.Millisecond, Nodes: 3})
	m.RecordRequest(RequestSample{Status: "optimal", Placed: true, InstalledRules: 5})
	m.InFlight().Add(1)
	m.Reset()
	s := m.Snapshot()
	if s.Solves != 0 || s.Nodes != 0 || s.InFlightRequests != 0 || len(s.Requests) != 0 {
		t.Fatalf("Reset left residue: %+v", s)
	}
	if s.SolveWallHist.Count != 0 || s.InstalledRules.Count != 0 {
		t.Fatalf("Reset left histogram residue: %+v", s)
	}
	// Layout survives a reset.
	if len(s.SolveWallHist.Buckets) != solveWallBuckets.Count+1 {
		t.Fatalf("Reset dropped bucket layout: %d buckets", len(s.SolveWallHist.Buckets))
	}
}

func TestTraceIDForDeterministic(t *testing.T) {
	a := TraceIDFor(7, []byte("body"))
	b := TraceIDFor(7, []byte("body"))
	if a != b {
		t.Fatalf("same inputs produced %q and %q", a, b)
	}
	if !strings.HasPrefix(a, "req-000007-") || len(a) != len("req-000007-")+16 {
		t.Fatalf("unexpected trace ID format %q", a)
	}
	if TraceIDFor(7, []byte("other")) == a {
		t.Fatal("different bodies produced the same ID")
	}
	if TraceIDFor(8, []byte("body")) == a {
		t.Fatal("different sequence numbers produced the same ID")
	}
}

func TestTagSink(t *testing.T) {
	if Tag("id", nil) != nil {
		t.Fatal("Tag of nil sink must stay nil (solver fast path)")
	}
	var rec Recorder
	if Tag("", &rec) != Sink(&rec) {
		t.Fatal("Tag with empty ID must return the sink unwrapped")
	}
	s := Tag("req-000001-abc", &rec)
	s.Event(Event{Kind: KindNode, Node: 1})
	s.Event(Event{Kind: KindDone, TraceID: "overwritten"})
	got := rec.Events()
	if len(got) != 2 || got[0].TraceID != "req-000001-abc" || got[1].TraceID != "req-000001-abc" {
		t.Fatalf("events not tagged: %+v", got)
	}
	if got[0].Node != 1 || got[0].Kind != KindNode {
		t.Fatalf("tagging perturbed event fields: %+v", got[0])
	}
}

func TestTraceSetIDCarriesID(t *testing.T) {
	tr := NewTrace()
	tr.SetID("req-000003-deadbeef")
	sp := tr.Span("place")
	sp.End()
	if tr.ID() != "req-000003-deadbeef" {
		t.Fatalf("trace ID = %q", tr.ID())
	}
	if !strings.Contains(tr.Render(), "trace req-000003-deadbeef") {
		t.Fatalf("render missing trace ID header:\n%s", tr.Render())
	}
	var nilTrace *Trace
	nilTrace.SetID("x") // must not panic
	if nilTrace.ID() != "" {
		t.Fatal("nil trace has an ID")
	}
}
