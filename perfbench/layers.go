package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/deps"
	"rulefit/internal/obs"
)

// layerAcc sums the per-layer numbers of traced in-process ops. The
// times come from the spans the program already emits (under "place")
// and from the benchmark's own spans around parse, tables and verify;
// the counts come from core.Placement.Stats.
type layerAcc struct {
	ops int

	parse, place, solve, decompose                    time.Duration
	presolve, rootLP, cuts, search                    time.Duration
	tables, semantics, capacities                     time.Duration
	encodeModel, depGraph                             time.Duration
	rootIters, depEdges, entries, violations          int64
	fallbacks                                         int
	vars, cons, nodes, iters, lu, cutsAdded, sb, warm int64

	tree *aggSpan
}

func newLayerAcc() *layerAcc { return &layerAcc{tree: &aggSpan{}} }

// addOp folds one traced op into the sums and the span tree, then
// times the public layer calls the op makes only inside core.Place:
// the joint model build and the per-policy dependency graphs.
func (a *layerAcc) addOp(tr *obs.Trace, r opResult) error {
	a.ops++
	a.addTrace(tr)
	a.tree.addTrace(tr)
	a.addStats(r.pl)
	a.entries += int64(r.entries)
	a.violations += int64(r.violations)

	t0 := time.Now()
	_, err := core.BuildModel(r.prob, core.Options{TimeLimit: timeLimit})
	a.encodeModel += time.Since(t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, pol := range r.prob.Policies {
		a.depEdges += int64(deps.BuildGraph(pol).NumEdges())
	}
	a.depGraph += time.Since(t0)
	return nil
}

// addTrace folds one op's span forest into the sums.
func (a *layerAcc) addTrace(tr *obs.Trace) {
	for _, root := range tr.Roots() {
		switch root.Name() {
		case "parse":
			a.parse += root.Wall()
		case "tables":
			a.tables += root.Wall()
		case "verify":
			a.semantics += root.Wall()
		case "capacities":
			a.capacities += root.Wall()
		case "place":
			a.place += root.Wall()
			a.addPlace(root)
		}
	}
}

// addPlace reads core's place span: decompose and the joint encode
// are its children; solve spans and the solver's phase spans can sit
// at any depth (sub-solves nest them under decompose).
func (a *layerAcc) addPlace(place *obs.Span) {
	decomposed := false
	for _, ch := range place.Children() {
		switch ch.Name() {
		case "decompose":
			decomposed = true
			a.decompose += ch.Wall()
		case "encode":
			if decomposed {
				a.fallbacks++
			}
		}
	}
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		switch sp.Name() {
		case "solve":
			a.solve += sp.Wall()
		case "presolve":
			a.presolve += sp.Wall()
		case "root_lp":
			a.rootLP += sp.Wall()
			if n, ok := sp.Counter("iters"); ok {
				a.rootIters += n
			}
		case "cuts":
			a.cuts += sp.Wall()
		case "search":
			a.search += sp.Wall()
		}
		for _, ch := range sp.Children() {
			walk(ch)
		}
	}
	walk(place)
}

func (a *layerAcc) addStats(pl *core.Placement) {
	st := pl.Stats
	a.vars += int64(st.Variables)
	a.cons += int64(st.Constraints)
	a.nodes += int64(st.BnBNodes)
	a.iters += int64(st.SimplexIters)
	a.lu += int64(st.LURefactors)
	a.cutsAdded += int64(st.CutsAdded)
	a.sb += int64(st.StrongBranchEvals)
	a.warm += int64(st.WarmStartReuses)
}

// daemonAcc sums what daemon-mix reads from responses: Server-Timing
// phases, the session response's wall_ms, path and cache fields, and
// client walls.
type daemonAcc struct {
	places, deltas, shed                     int
	placeMS, deltaMS                         []float64
	queueWait, parse, encode, solve, extr    float64 // ms, places only
	wire                                     float64 // ms, all ops
	serverDelta                              float64 // ms
	warm                                     int
	encHits, encLookups, solHits, solLookups int64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerMetrics assembles every per-layer metric. A layer the workload
// does not exercise reports 0. tr is the traced phase and base the
// untraced phase that ran the same ops before it.
func layerMetrics(a *layerAcc, d *daemonAcc, tr, base *timed) map[string]metric {
	n := float64(a.ops)
	per := func(d time.Duration) float64 { return ratio(ms(d), n) }
	cnt := func(v int64) float64 { return ratio(float64(v), n) }
	m := map[string]metric{
		"spec.parse_ms":            {per(a.parse), "ms"},
		"core.place_ms":            {per(a.place), "ms"},
		"core.solve_share":         {ratio(ms(a.solve), ms(a.place)), "share"},
		"core.decompose_ms":        {per(a.decompose), "ms"},
		"core.decompose_fallbacks": {cnt(int64(a.fallbacks)), "count"},
		"core.encode_model_ms":     {per(a.encodeModel), "ms"},
		"core.vars":                {cnt(a.vars), "count"},
		"core.constraints":         {cnt(a.cons), "count"},
		"deps.graph_ms":            {per(a.depGraph), "ms"},
		"deps.edges":               {cnt(a.depEdges), "count"},
		"ilp.nodes":                {cnt(a.nodes), "count"},
		"ilp.simplex_iters":        {cnt(a.iters), "count"},
		"ilp.lu_refactors":         {cnt(a.lu), "count"},
		"ilp.cuts_added":           {cnt(a.cutsAdded), "count"},
		"ilp.strong_branch_evals":  {cnt(a.sb), "count"},
		"ilp.warm_start_reuses":    {cnt(a.warm), "count"},
		"ilp.presolve_ms":          {per(a.presolve), "ms"},
		"ilp.root_lp_ms":           {per(a.rootLP), "ms"},
		"ilp.cuts_ms":              {per(a.cuts), "ms"},
		"ilp.search_ms":            {per(a.search), "ms"},
		"ilp.root_us_per_iter":     {ratio(ms(a.rootLP)*1e3, float64(a.rootIters)), "us"},
		"dataplane.tables_ms":      {per(a.tables), "ms"},
		"dataplane.entries":        {cnt(a.entries), "count"},
		"verify.semantics_ms":      {per(a.semantics), "ms"},
		"verify.capacities_ms":     {per(a.capacities), "ms"},
		"verify.violations":        {float64(a.violations), "count"},
		"go.gc_cycles_per_op":      {ratio(float64(tr.gcCycles), float64(len(tr.lat))), "count"},
		"go.gc_pause_ms_per_op":    {ratio(ms(tr.gcPause), float64(len(tr.lat))), "ms"},
		"trace.overhead_ms":        {tr.geomeanMS() - base.geomeanMS(), "ms"},
		"trace.overhead_share":     {ratio(tr.geomeanMS(), base.geomeanMS()) - 1, "share"},
		"bench.half_p50_drift":     {base.halfDrift(), "share"},
	}
	if d == nil {
		d = &daemonAcc{}
	}
	np, nall := float64(d.places), float64(d.places+d.deltas)
	for k, v := range map[string]metric{
		"state.delta_p50_ms":             {quantile(d.deltaMS, 0.5), "ms"},
		"state.delta_tail_ms":            {quantile(d.deltaMS, 0.9), "ms_p90"},
		"state.server_delta_ms":          {ratio(d.serverDelta, float64(d.deltas)), "ms"},
		"state.warm_share":               {ratio(float64(d.warm), float64(d.deltas)), "share"},
		"state.encode_cache_hit_ratio":   {ratio(float64(d.encHits), float64(d.encLookups)), "share"},
		"state.solution_cache_hit_ratio": {ratio(float64(d.solHits), float64(d.solLookups)), "share"},
		"daemon.place_p50_ms":            {quantile(d.placeMS, 0.5), "ms"},
		"daemon.queue_wait_ms":           {ratio(d.queueWait, np), "ms"},
		"daemon.parse_ms":                {ratio(d.parse, np), "ms"},
		"daemon.encode_ms":               {ratio(d.encode, np), "ms"},
		"daemon.solve_ms":                {ratio(d.solve, np), "ms"},
		"daemon.extract_ms":              {ratio(d.extr, np), "ms"},
		"daemon.wire_ms":                 {ratio(d.wire, nall), "ms"},
		"daemon.shed":                    {float64(d.shed), "count"},
	} {
		m[k] = v
	}
	return m
}

// knownCounters are the span counters the program sets; obs.Span
// exposes counters by name only.
var knownCounters = []string{
	"policies", "vars", "constraints", "imps", "covers", "groups", "rows",
	"fixes", "iters", "refactors", "cuts", "nodes", "fragments",
	"stitch_rejected", "checks", "violations",
}

// aggSpan is a span tree merged over ops by name path: wall time and
// heap allocation per op, occurrences, and counters summed over all ops.
type aggSpan struct {
	Name     string           `json:"name"`
	Count    int              `json:"count"`
	WallMS   float64          `json:"wall_ms_per_op"`
	AllocMB  float64          `json:"alloc_mb_per_op"`
	Counters map[string]int64 `json:"counters_total,omitempty"`
	Children []*aggSpan       `json:"children,omitempty"`

	wall  time.Duration
	alloc uint64
}

func (a *aggSpan) child(name string) *aggSpan {
	for _, c := range a.Children {
		if c.Name == name {
			return c
		}
	}
	c := &aggSpan{Name: name}
	a.Children = append(a.Children, c)
	return c
}

// addTrace merges one op's span forest under a.
func (a *aggSpan) addTrace(tr *obs.Trace) {
	for _, root := range tr.Roots() {
		a.child(root.Name()).add(root)
	}
}

func (a *aggSpan) add(sp *obs.Span) {
	a.Count++
	a.wall += sp.Wall()
	a.alloc += sp.AllocBytes()
	for _, name := range knownCounters {
		if v, ok := sp.Counter(name); ok {
			if a.Counters == nil {
				a.Counters = map[string]int64{}
			}
			a.Counters[name] += v
		}
	}
	for _, ch := range sp.Children() {
		a.child(ch.Name()).add(ch)
	}
}

// finish converts the sums to per-op figures over ops ops.
func (a *aggSpan) finish(ops int) {
	a.WallMS = ratio(ms(a.wall), float64(ops))
	a.AllocMB = ratio(float64(a.alloc)/1e6, float64(ops))
	for _, c := range a.Children {
		c.finish(ops)
	}
}

// render prints the tree as indented text, one span per line.
func (a *aggSpan) render() string {
	var sb strings.Builder
	var walk func(s *aggSpan, depth int)
	walk = func(s *aggSpan, depth int) {
		if depth >= 0 {
			fmt.Fprintf(&sb, "%s%-*s %10.3fms/op %9.3fMB/op  x%d", strings.Repeat("  ", depth),
				28-2*depth, s.Name, s.WallMS, s.AllocMB, s.Count)
			keys := make([]string, 0, len(s.Counters))
			for k := range s.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, " Σ%s=%d", k, s.Counters[k])
			}
			sb.WriteByte('\n')
		}
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(a, -1)
	return sb.String()
}
