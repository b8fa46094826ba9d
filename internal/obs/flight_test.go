package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestFlightRingWraparound(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 4})
	for i := 1; i <= 10; i++ {
		r.Event(Event{Kind: KindNode, Node: i})
	}
	d := r.Dump()
	if len(d.Events) != 4 {
		t.Fatalf("retained %d events, want ring size 4", len(d.Events))
	}
	// Oldest first: nodes 7, 8, 9, 10.
	for i, e := range d.Events {
		if want := 7 + i; e.Node != want {
			t.Fatalf("event %d has node %d, want %d (ring not oldest-first)", i, e.Node, want)
		}
	}
	if d.Seen != 10 {
		t.Fatalf("Seen = %d, want 10", d.Seen)
	}
	if d.Dropped != 0 || d.Sampled != 0 {
		t.Fatalf("unexpected loss accounting: dropped=%d sampled=%d", d.Dropped, d.Sampled)
	}
}

func TestFlightRingPartialFill(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 8})
	for i := 1; i <= 3; i++ {
		r.Event(Event{Kind: KindNode, Node: i})
	}
	d := r.Dump()
	if len(d.Events) != 3 {
		t.Fatalf("retained %d events before wrap, want 3", len(d.Events))
	}
	for i, e := range d.Events {
		if e.Node != i+1 {
			t.Fatalf("event %d has node %d, want %d", i, e.Node, i+1)
		}
	}
}

func TestFlightRingDroppedUnderContention(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 4})
	r.Event(Event{Kind: KindNode, Node: 1})
	// Hold the ring lock as Dump would; every offer must drop, not block.
	r.mu.Lock()
	for i := 0; i < 5; i++ {
		r.Event(Event{Kind: KindNode, Node: 100 + i})
	}
	r.mu.Unlock()
	d := r.Dump()
	if d.Dropped != 5 {
		t.Fatalf("Dropped = %d, want 5", d.Dropped)
	}
	if d.Seen != 6 {
		t.Fatalf("Seen = %d, want 6", d.Seen)
	}
	if len(d.Events) != 1 || d.Events[0].Node != 1 {
		t.Fatalf("ring contents perturbed by dropped events: %+v", d.Events)
	}
}

func TestFlightRingSampleHot(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 64, SampleHot: 4})
	for i := 1; i <= 16; i++ {
		r.Event(Event{Kind: KindNode, Node: i})
	}
	// Low-volume kinds are never decimated.
	r.Event(Event{Kind: KindIncumbent, Node: 17})
	r.Event(Event{Kind: KindDone, Node: 18})
	d := r.Dump()
	if d.Sampled != 12 {
		t.Fatalf("Sampled = %d, want 12 (16 hot events at 1-in-4)", d.Sampled)
	}
	var nodes, other int
	for _, e := range d.Events {
		if e.Kind == KindNode {
			nodes++
		} else {
			other++
		}
	}
	if nodes != 4 {
		t.Fatalf("retained %d node events, want 4", nodes)
	}
	if other != 2 {
		t.Fatalf("retained %d low-volume events, want 2 (incumbent+done always kept)", other)
	}
}

// TestFlightRingDumpWhileRecording exercises the Dump-vs-Event race the
// recorder is designed around: under -race this must be clean, and the
// loss accounting must balance — every offered event is either retained,
// overwritten (ring), dropped, or sampled; none vanish unaccounted.
func TestFlightRingDumpWhileRecording(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 32})
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Event(Event{Kind: KindNode, Node: w*perWriter + i})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			d := r.Dump()
			if uint64(len(d.Events)) > d.Seen {
				t.Errorf("dump retained %d events but only %d seen", len(d.Events), d.Seen)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	d := r.Dump()
	if d.Seen != writers*perWriter {
		t.Fatalf("Seen = %d, want %d", d.Seen, writers*perWriter)
	}
	if d.Dropped+d.Sampled > d.Seen {
		t.Fatalf("loss accounting exceeds offers: dropped=%d sampled=%d seen=%d",
			d.Dropped, d.Sampled, d.Seen)
	}
}

func TestFlightDumpWriteJSONL(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 4})
	r.Event(Event{Kind: KindPhase, Phase: "search", Gap: -1, BranchVar: -1})
	for i := 1; i <= 5; i++ {
		r.Event(Event{Kind: KindNode, Node: i + 1, Gap: -1, BranchVar: -1})
	}
	var buf bytes.Buffer
	if err := r.Dump().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("read %d lines, want 5 (meta header + 4 retained)", len(got))
	}
	meta := got[0]
	if meta.Kind != KindFlightMeta {
		t.Fatalf("first line kind %q, want %q", meta.Kind, KindFlightMeta)
	}
	if meta.Node != 4 || meta.Seen != 6 || meta.Phase != "search" {
		t.Fatalf("meta retained=%d seen=%d phase=%q, want 4/6 and the overwritten search phase",
			meta.Node, meta.Seen, meta.Phase)
	}
	for i, e := range got[1:] {
		if want := 3 + i; e.Node != want {
			t.Fatalf("retained event %d has node %d, want %d", i, e.Node, want)
		}
	}
}

func TestFlightOptsDefaults(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: -1, SampleHot: 0}) //lint:optzero defaults under test
	if r.opts.Size != 4096 {
		t.Fatalf("default ring size %d, want 4096", r.opts.Size)
	}
	if r.opts.SampleHot != 1 {
		t.Fatalf("default SampleHot %d, want 1", r.opts.SampleHot)
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.Publish(ProgressSnapshot{Phase: "search"}) // must not panic
	p.Event(Event{Kind: KindPhase, Phase: "search"})
	if s, ok := p.Snapshot(); ok || s != (ProgressSnapshot{}) {
		t.Fatalf("nil Progress returned a snapshot: %+v", s)
	}
}

func TestProgressPublishSnapshot(t *testing.T) {
	var p Progress
	if _, ok := p.Snapshot(); ok {
		t.Fatal("fresh Progress reported a snapshot before any Publish")
	}
	p.Publish(ProgressSnapshot{Phase: "root_lp", Nodes: 0, Gap: -1})
	p.Publish(ProgressSnapshot{Phase: "search", Nodes: 12, Incumbent: 7, HaveIncumbent: true, Gap: 0.25})
	s, ok := p.Snapshot()
	if !ok {
		t.Fatal("Snapshot reported none after Publish")
	}
	if s.Phase != "search" || s.Nodes != 12 || !s.HaveIncumbent || s.Gap != 0.25 {
		t.Fatalf("snapshot did not reflect latest publish: %+v", s)
	}
}

// TestProgressFoldsEvents drives a Progress cell as a Sink: phase,
// incumbent, gap and done events each publish a folded snapshot, hot
// node events publish nothing, and only the request owner's closing
// "done" phase event sets Done.
func TestProgressFoldsEvents(t *testing.T) {
	var p Progress
	p.Publish(ProgressSnapshot{TraceID: "req-1", Phase: "admitted", Gap: -1})
	step := func(e Event) ProgressSnapshot {
		t.Helper()
		p.Event(e)
		s, ok := p.Snapshot()
		if !ok || s.TraceID != "req-1" {
			t.Fatalf("after %+v: snapshot %+v", e, s)
		}
		return s
	}
	if s := step(Event{Kind: KindPhase, Phase: "root_lp", Gap: -1}); s.Phase != "root_lp" || s.Gap != -1 {
		t.Fatalf("root_lp: %+v", s)
	}
	if s := step(Event{Kind: KindPhase, Phase: "search", Node: 1, BestBound: 3, Gap: -1}); s.Phase != "search" || s.BestBound != 3 {
		t.Fatalf("search: %+v", s)
	}
	if s := step(Event{Kind: KindNode, Node: 2, Outcome: OutcomeBranched}); s.Nodes != 1 {
		t.Fatalf("node event published a snapshot: %+v", s)
	}
	if s := step(Event{Kind: KindIncumbent, Node: 4, Incumbent: 5, Gap: -1}); !s.HaveIncumbent || s.Incumbent != 5 || s.Nodes != 4 || s.Incumbents != 1 {
		t.Fatalf("incumbent: %+v", s)
	}
	if s := step(Event{Kind: KindGap, Node: 6, Incumbent: 5, BestBound: 4, Gap: 0.2}); s.Nodes != 6 || s.BestBound != 4 || s.Gap != 0.2 {
		t.Fatalf("gap: %+v", s)
	}
	s := step(Event{Kind: KindDone, Node: 9, Outcome: "optimal", Incumbent: 5, BestBound: 5})
	if s.Phase != "done" || s.Done || s.Nodes != 9 || s.Gap != 0 || !s.HaveIncumbent {
		t.Fatalf("solver done: %+v", s)
	}
	// The next solve of the same request starts from a clean incumbent.
	if s := step(Event{Kind: KindPhase, Phase: "presolve", Gap: -1}); s.HaveIncumbent || s.Incumbents != 0 || s.Gap != -1 {
		t.Fatalf("second solve's presolve kept the first solve's incumbent: %+v", s)
	}
	s = step(Event{Kind: KindPhase, Phase: "done", Node: 12, Outcome: "optimal", Incumbent: 8, BestBound: 8})
	if !s.Done || s.Phase != "done" || s.Nodes != 12 || s.Incumbent != 8 || !s.HaveIncumbent {
		t.Fatalf("closing done phase: %+v", s)
	}
}

// TestProgressConcurrentReaders hammers one writer (publishing and
// folding events) against many readers; under -race the cell must be
// clean and every observed snapshot internally consistent (Nodes never
// exceeds the published max).
func TestProgressConcurrentReaders(t *testing.T) {
	var p Progress
	const max = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i <= max; i++ {
			p.Publish(ProgressSnapshot{Phase: "search", Nodes: i})
			p.Event(Event{Kind: KindGap, Node: i, Incumbent: 2, BestBound: 1, Gap: 0.5})
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if s, ok := p.Snapshot(); ok && (s.Nodes < 0 || s.Nodes > max) {
					t.Errorf("torn snapshot: %+v", s)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
}
