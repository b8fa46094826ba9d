package obs

import (
	"sync"
	"sync/atomic"
)

// ProgressSnapshot is one point-in-time view of a running request,
// folded from its solver event stream and read by the daemon's
// /debug/solvez endpoint. All fields are observational; the solver
// never reads a snapshot back, so attaching a Progress cannot perturb
// the search (the same contract as every Sink).
type ProgressSnapshot struct {
	// TraceID joins the snapshot to its request ("" when unscoped).
	TraceID string `json:"trace_id,omitempty"`
	// Phase is where the request currently is: "admitted" (daemon slot
	// held, solver not yet entered), "presolve", "root_lp", "cuts",
	// "search", or "done" (a solve, or — with Done — the request,
	// finished).
	Phase string `json:"phase"`
	// Nodes is the branch & bound nodes expanded so far by the current
	// solve (the request's total once Done).
	Nodes int `json:"nodes"`
	// Incumbent is the best integer objective so far; meaningful only
	// when HaveIncumbent.
	Incumbent     float64 `json:"incumbent"`
	HaveIncumbent bool    `json:"have_incumbent"`
	// BestBound is the current valid lower bound on the optimum.
	BestBound float64 `json:"best_bound"`
	// Gap is the relative optimality gap at the snapshot (-1 undefined,
	// e.g. before the first incumbent — the same sentinel as ilp.Stats).
	Gap float64 `json:"gap"`
	// Incumbents counts incumbent improvements in the current solve.
	Incumbents int `json:"incumbents"`
	// ElapsedMS is the TimeMS of the last folded event: wall time since
	// the current solve (or, once Done, the request's place) started.
	// Timing field: informational only, never a solver input.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Done marks the final snapshot: the request owner's closing
	// "done" phase event, emitted once its answer is final. A
	// decomposed place runs several solves; only the last snapshot of
	// the place is Done.
	Done bool `json:"done"`
}

// Progress is an atomically-published ProgressSnapshot cell and a Sink:
// it folds phase, incumbent, gap and done events into snapshots and
// publishes one at each of those events — never per node, so the hot
// node and skip events cost it one switch. Any number of readers
// Snapshot concurrently without locks. A nil *Progress is a no-op on
// both sides.
type Progress struct {
	p atomic.Pointer[ProgressSnapshot]

	mu  sync.Mutex
	cur ProgressSnapshot // fold state; guarded by mu
}

// Publish replaces the current snapshot (and the fold state later
// events build on). Nil-receiver-safe.
func (p *Progress) Publish(s ProgressSnapshot) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cur = s
	p.p.Store(&s)
	p.mu.Unlock()
}

// Event folds one solver event into the snapshot and publishes the
// result when the event changes what /debug/solvez shows.
func (p *Progress) Event(e Event) {
	switch e.Kind {
	case KindPhase, KindIncumbent, KindGap, KindDone:
	default:
		return
	}
	if p == nil {
		return
	}
	p.mu.Lock()
	fold(&p.cur, e)
	snap := p.cur
	p.mu.Unlock()
	p.p.Store(&snap)
}

// fold applies one phase, incumbent, gap or done event to s.
func fold(s *ProgressSnapshot, e Event) {
	if e.TraceID != "" {
		s.TraceID = e.TraceID
	}
	s.ElapsedMS = e.TimeMS
	solved := e.Outcome == "optimal" || e.Outcome == "feasible"
	switch e.Kind {
	case KindPhase:
		s.Phase, s.Nodes = e.Phase, e.Node
		if e.Phase == "done" {
			// The request owner's closing event: the answer is final.
			s.Done = true
			s.Incumbent, s.HaveIncumbent = e.Incumbent, solved
			s.BestBound, s.Gap = e.BestBound, e.Gap
			return
		}
		// A solver phase opens before any incumbent of its solve exists.
		s.Incumbent, s.HaveIncumbent, s.Incumbents = 0, false, 0
		s.BestBound, s.Gap = e.BestBound, -1
	case KindIncumbent:
		s.Incumbent, s.HaveIncumbent = e.Incumbent, true
		s.Incumbents++
		if e.Node > s.Nodes {
			s.Nodes = e.Node
		}
	case KindGap:
		s.Nodes = e.Node
		s.Incumbent, s.BestBound, s.Gap = e.Incumbent, e.BestBound, e.Gap
	case KindDone:
		s.Phase, s.Nodes = "done", e.Node
		s.Incumbent, s.HaveIncumbent = e.Incumbent, solved
		s.BestBound, s.Gap = e.BestBound, e.Gap
	}
}

// Snapshot returns the latest published snapshot, and whether one has
// been published yet. Nil-receiver-safe.
func (p *Progress) Snapshot() (ProgressSnapshot, bool) {
	if p == nil {
		return ProgressSnapshot{}, false
	}
	s := p.p.Load()
	if s == nil {
		return ProgressSnapshot{}, false
	}
	return *s, true
}
