// Package obs is the repo's zero-dependency observability layer: it
// turns every placement run into explainable data without ever
// influencing the answer. It has one observation channel and one
// process-wide metrics registry, all optional and all safe to leave
// wired in production paths:
//
//   - The solver event stream: internal/ilp emits phase events,
//     node expansions, prunes, incumbents, a bound-gap series and the
//     stop reason into a Sink, from its sequential sections only, so
//     the sequence is identical modulo timing for any worker count. A
//     nil Sink costs one branch per emission site; nothing is read
//     back, so placements are byte-identical with any consumer on or
//     off. Every observer of a solve consumes this stream: Recorder,
//     JSONLWriter, FlightRecorder, Progress (/debug/solvez), core's
//     phase spans and the daemon's pprof labels; Tag stamps a trace
//     ID and Multi fans the stream out.
//
//   - Phase spans: hierarchical wall-clock/alloc timers over the
//     compile pipeline (parse → routing → dependency graph → model
//     build → solve → extraction → verify). All Span/Trace methods are
//     nil-receiver-safe, so call sites need no guards, and span
//     mutation is mutex-serialized so parallel sweeps can share a
//     Trace.
//
//   - Metrics exposition: cheap process-wide atomic counters (always
//     on; one bulk update per solve) with Prometheus-text and JSON
//     snapshot encoders.
//
// Determinism rule: timing fields (Event.TimeMS, span wall times,
// alloc deltas) are observational only. No consumer may route them
// back into solver decisions, and determinism comparisons must exclude
// them. Everything else in an Event is a pure function of the
// instance.
package obs

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// Event kinds, in the order a solve emits them.
const (
	// KindPhase opens a solve phase (Phase: "presolve", "root_lp",
	// "cuts", "search") on the solver goroutine before its work starts,
	// with the solve's running totals (Fixes, Iters, Refactors, Cuts,
	// Node; BestBound once the root bound is known). core.Place closes
	// a request's stream with Phase "done" once its answer is final:
	// Outcome, Node, Incumbent, BestBound and Gap are the answer's.
	KindPhase = "phase"
	// KindRootLP reports the root relaxation (Bound, Iters, Refactors).
	KindRootLP = "root_lp"
	// KindCut reports one lifted cover cut accepted into the root pool
	// (Node carries the separation round, Iters the cut length, Bound the
	// cut RHS). Emitted only from the sequential root cut loop.
	KindCut = "cut_added"
	// KindPseudocostInit reports one reliability strong-branching
	// initialization (Node, BranchVar, Frac, Iters spent on the trials).
	// Emitted only from the sequential merge sections.
	KindPseudocostInit = "pseudocost_init"
	// KindNode reports one expanded branch & bound node: Node id,
	// Parent, Depth, LP Bound, the Outcome, and — when branched — the
	// branching variable and its fractionality.
	KindNode = "node"
	// KindSkip reports a deque item discarded before expansion because
	// an incumbent found after it was pushed dominates its bound.
	// Skipped items are not counted as nodes.
	KindSkip = "skip"
	// KindIncumbent reports a new best integer solution (Node that
	// produced it, Incumbent objective).
	KindIncumbent = "incumbent"
	// KindGap is one point of the bound-gap time series, emitted at the
	// round boundary after an incumbent improvement: nodes so far,
	// Incumbent, BestBound, Gap.
	KindGap = "gap"
	// KindDone closes the trace: final status (Outcome), stop reason
	// (Reason), node/iteration totals, Incumbent, BestBound, Gap.
	KindDone = "done"
	// KindFlightMeta heads a flight-recorder dump (see FlightRecorder):
	// Node carries the retained event count, Seen/Dropped/Sampled the
	// loss accounting, Phase the last solver phase the recorder saw open.
	// Never emitted by the solver itself; its presence marks a trace as
	// a partial (ring-buffer) dump.
	KindFlightMeta = "flight_meta"
)

// Node outcomes carried by KindNode events. Every expanded node gets
// exactly one, so the per-outcome counts sum to the node total.
const (
	// OutcomeBranched: fractional LP optimum; two children pushed.
	OutcomeBranched = "branched"
	// OutcomeBound: LP bound dominated by the incumbent; subtree cut.
	OutcomeBound = "pruned_bound"
	// OutcomeInfeasible: node LP proven empty; sound prune.
	OutcomeInfeasible = "pruned_infeasible"
	// OutcomeIntegral: LP optimum already integral; leaf reached.
	OutcomeIntegral = "integral"
	// OutcomeLost: node LP hit the time limit or numerics; the subtree
	// is lost and optimality can no longer be proven.
	OutcomeLost = "lost"
)

// Event is one structured solver event. The struct is flat so it
// round-trips through JSONL without a tagged union; fields not used by
// a kind are zero. TimeMS is the only timing field: it is milliseconds
// since the solve started, informational only, and must be excluded
// from determinism comparisons (see Normalize).
type Event struct {
	Kind string `json:"kind"`
	// TraceID joins the event to the request that produced it (see
	// Tag). Empty for unscoped solves. Deterministic —
	// included in determinism comparisons.
	TraceID string `json:"trace_id,omitempty"`
	// Node is the 1-based id of the node (KindNode/KindIncumbent), or
	// the nodes-so-far count (KindGap/KindDone).
	Node int `json:"node"`
	// Parent is the id of the node that pushed this item (0 for root).
	Parent int `json:"parent"`
	// Depth is the branching depth (root children are depth 1).
	Depth int `json:"depth"`
	// Outcome is the node outcome (KindNode) or final status
	// (KindDone, and the closing KindPhase "done").
	Outcome string `json:"outcome,omitempty"`
	// Phase names the phase a KindPhase event opens.
	Phase string `json:"phase,omitempty"`
	// Bound is the node's LP objective, ceiled when the objective is
	// integral (KindNode/KindSkip: the pruning bound; KindRootLP: the
	// raw root relaxation objective).
	Bound float64 `json:"bound"`
	// BranchVar is the model variable branched on (-1 when the node did
	// not branch).
	BranchVar int `json:"branch_var"`
	// Frac is the branching variable's fractional part distance.
	Frac float64 `json:"frac"`
	// Iters is the simplex iteration delta attributed to this event.
	Iters int `json:"iters"`
	// Refactors is the LU refactorization delta for this event.
	Refactors int `json:"refactors"`
	// Fixes is the presolve bound-tightening count (KindPhase,
	// KindDone).
	Fixes int `json:"fixes"`
	// Cuts is the number of root cuts accepted so far (KindPhase,
	// KindDone).
	Cuts int `json:"cuts,omitempty"`
	// Incumbent is the best integer objective known at the event.
	Incumbent float64 `json:"incumbent"`
	// BestBound is a valid lower bound on the optimum at the event.
	BestBound float64 `json:"best_bound"`
	// Gap is the relative optimality gap (0 proven, -1 undefined).
	Gap float64 `json:"gap"`
	// Reason is the stop reason (KindDone only).
	Reason string `json:"reason,omitempty"`
	// Seen/Dropped/Sampled carry a flight dump's loss accounting
	// (KindFlightMeta only; zero and omitted on solver events).
	Seen    int `json:"seen,omitempty"`
	Dropped int `json:"dropped,omitempty"`
	Sampled int `json:"sampled,omitempty"`
	// TimeMS is milliseconds since solve start. Timing field:
	// informational only, excluded from determinism comparisons.
	TimeMS float64 `json:"time_ms"`
}

// Normalize returns a copy of the event with timing fields zeroed, for
// determinism comparisons (identical searches must produce identical
// normalized event sequences).
func (e Event) Normalize() Event {
	e.TimeMS = 0
	return e
}

// Sink receives solver events. Implementations must not feed anything
// back into the solver; the solve's behavior never depends on the sink.
// Events arrive from a single goroutine per solve, but separate
// concurrent solves may share a sink, so implementations that aggregate
// must lock (Recorder and JSONLWriter do).
//
// A nil Sink means observability is off: hot paths call methods only
// behind a `!= nil` guard so the fast path stays allocation-free.
//
//lint:sinkguard-iface nil when observability is off; guard every call
type Sink interface {
	Event(Event)
}

// Recorder is a Sink that stores events in memory, for tests and
// post-run summaries.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Event appends one event.
func (r *Recorder) Event(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns the recorded events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// multiSink fans each event out to several sinks.
type multiSink []Sink

func (m multiSink) Event(e Event) {
	for _, s := range m {
		//lint:sinkguard Multi drops nil sinks at construction
		s.Event(e)
	}
}

// Multi returns a Sink that forwards each event to every non-nil sink,
// or nil when none remain (so the solver's nil fast path still applies).
func Multi(sinks ...Sink) Sink {
	var out multiSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}

// TraceIDFor derives the deterministic trace ID for the seq-th request
// with the given body: a sequence number plus an FNV-1a content hash.
// Replaying the same request stream yields the same IDs.
func TraceIDFor(seq uint64, body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("req-%06d-%016x", seq, h.Sum64())
}

// tagSink stamps a trace ID on every event before forwarding.
type tagSink struct {
	id string
	s  Sink
}

func (t tagSink) Event(e Event) {
	e.TraceID = t.id
	//lint:sinkguard Tag maps a nil sink to nil, so t.s is never nil
	t.s.Event(e)
}

// Tag wraps s so every event carries TraceID id. Returns s unchanged
// when id is empty, and nil when s is nil (preserving the solver's
// disabled-sink fast path).
func Tag(id string, s Sink) Sink {
	if s == nil || id == "" {
		return s
	}
	return tagSink{id: id, s: s}
}
