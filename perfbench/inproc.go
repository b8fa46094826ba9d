package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/core"
	"rulefit/internal/obs"
	"rulefit/internal/spec"
	"rulefit/internal/verify"
)

// timeLimit is the program's default per-solve limit (ruleplaced's
// DefaultTimeLimit); every in-process op solves with it.
const timeLimit = 60 * time.Second

// instanceDef is one Fig. 7-style instance: fat-tree k=4, 8 ingresses
// × 8 paths (bench.Build's defaults), Rules per ingress, uniform
// Capacity, generation Seed.
type instanceDef struct {
	Rules, Capacity int
	Seed            int64
}

func (d instanceDef) key() string { return fmt.Sprintf("r%d-c%d-s%d", d.Rules, d.Capacity, d.Seed) }

// inprocSet is an in-process workload: its instances, and the index of
// the one whose op warms the process up during set-up.
type inprocSet struct {
	defs []instanceDef
	warm int
}

// fig7Tight is the paper's Fig. 7 capacity-25 series at the
// experiments tool's three seeds (0, 101, 202) for rules 15–30. Left
// out: r30/s101, which runs into its 60 s limit; r5–r15 instances
// whose decomposition succeeds in 2–20 ms, which measure the scheduler,
// not the search; and r25/s101 and r25/s202, whose ops take 2 s or
// more, so that the five passes a run needs for its 40 ops fit the
// benchmark's time budget.
var fig7Tight = inprocSet{
	defs: []instanceDef{
		{15, 25, 101}, {15, 25, 202},
		{20, 25, 0}, {20, 25, 101}, {20, 25, 202},
		{25, 25, 0}, {30, 25, 0}, {30, 25, 202},
	},
	warm: 0,
}

// slackScale is Fig. 7's slack regime scaled to 100 rules per ingress:
// at capacity 1000 no capacity row binds, decomposition succeeds, and
// the root LPs do the work.
var slackScale = inprocSet{
	defs: []instanceDef{
		{100, 1000, 0}, {100, 1000, 101}, {100, 1000, 202},
		{100, 1000, 303}, {100, 1000, 404}, {100, 1000, 505},
	},
	warm: 1,
}

// expectedAnswer is an instance's status and objective (TotalRules),
// recorded at the commit that introduced the benchmark.
type expectedAnswer struct {
	Status     string `json:"status"`
	TotalRules int    `json:"total_rules"`
}

//go:embed expected.json
var expectedJSON []byte

// instance is a generated instance in the wire form ops start from.
type instance struct {
	key  string
	body []byte
	want expectedAnswer
}

// buildInstances generates the set and serialises each instance to
// fully explicit spec JSON.
func buildInstances(defs []instanceDef, want map[string]expectedAnswer) ([]*instance, error) {
	out := make([]*instance, 0, len(defs))
	for _, d := range defs {
		prob, err := bench.Build(bench.Config{Rules: d.Rules, Capacity: d.Capacity, Seed: d.Seed})
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", d.key(), err)
		}
		body, err := json.Marshal(spec.FromCore(prob))
		if err != nil {
			return nil, err
		}
		w, ok := want[d.key()]
		if want != nil && !ok {
			return nil, fmt.Errorf("no expected answer for %s", d.key())
		}
		out = append(out, &instance{key: d.key(), body: body, want: w})
	}
	return out, nil
}

// opResult is what one op produced.
type opResult struct {
	prob       *core.Problem
	pl         *core.Placement
	entries    int
	violations int
}

func placed(pl *core.Placement) bool {
	return pl.Status == core.StatusOptimal || pl.Status == core.StatusFeasible
}

// placeOp is one op, the same steps as `ruleplace -in`: spec bytes →
// spec.LoadBytes/Build → core.Place → BuildTables → verify.Semantics +
// verify.Capacities. tr, when non-nil, records the program's spans
// plus the benchmark's own around parse, tables and verify.
func placeOp(body []byte, verifySeed int64, tr *obs.Trace) (opResult, error) {
	var r opResult
	parseSp := tr.Span("parse")
	desc, err := spec.LoadBytes(body)
	if err != nil {
		return r, err
	}
	if r.prob, err = desc.Build(); err != nil {
		return r, err
	}
	parseSp.End()
	if r.pl, err = core.Place(r.prob, core.Options{TimeLimit: timeLimit, Trace: tr}); err != nil {
		return r, err
	}
	if !placed(r.pl) {
		return r, nil
	}
	tablesSp := tr.Span("tables")
	net, err := r.pl.BuildTables(r.prob)
	if err != nil {
		return r, err
	}
	tablesSp.End()
	verifySp := tr.Span("verify")
	sem := verify.Semantics(net, r.prob.Routing, r.pl.Policies, verify.Config{Seed: verifySeed, Span: verifySp})
	verifySp.End()
	capSp := tr.Span("capacities")
	caps := verify.Capacities(net, r.prob.Network)
	capSp.End()
	r.violations = len(sem) + len(caps)
	r.entries = net.TotalEntries()
	return r, nil
}

// check compares an op's answer with the instance's expected answer.
func (in *instance) check(r opResult) error {
	got := expectedAnswer{Status: r.pl.Status.String(), TotalRules: r.pl.TotalRules}
	if got != in.want {
		return fmt.Errorf("%s: got %+v, want %+v", in.key, got, in.want)
	}
	if r.violations > 0 {
		return fmt.Errorf("%s: %d verify violations", in.key, r.violations)
	}
	return nil
}

// runInproc runs an in-process workload: set-up (repeated), then
// whole passes over the instances in a seeded order until the run
// length has passed and at least minOps ops have run.
func runInproc(cfg runConfig, set inprocSet) (*report, error) {
	var want map[string]expectedAnswer
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	rep := &report{}
	var insts []*instance
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if insts, err = buildInstances(set.defs, want); err != nil {
			return nil, err
		}
		if _, err := placeOp(insts[set.warm].body, cfg.seed, nil); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(start).Seconds())
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	minPasses := (minOps + len(insts) - 1) / len(insts)
	if !cfg.traced {
		rep.timed = runPasses(rep, insts, rng, cfg, func(p int, el time.Duration) bool {
			return p < minPasses || el < cfg.seconds
		}, nil)
		return rep, nil
	}
	// Traced run: untraced passes for half the run, then as many traced
	// passes; the geomean difference is the tracing overhead.
	var passes int
	rep.timed = runPasses(rep, insts, rng, cfg, func(p int, el time.Duration) bool {
		passes = p
		return p < 1 || el < cfg.seconds/2
	}, nil)
	acc := newLayerAcc()
	rep.traced = runPasses(rep, insts, rng, cfg, func(p int, _ time.Duration) bool {
		return p < passes
	}, acc)
	acc.tree.finish(acc.ops)
	rep.layers = layerMetrics(acc, nil, &rep.traced, &rep.timed)
	rep.tree = acc.tree
	return rep, nil
}

// runPasses times whole passes over insts, each in a fresh seeded
// order, while more(pass, elapsed) holds. With acc set, every op is
// traced into acc.
func runPasses(rep *report, insts []*instance, rng *rand.Rand, cfg runConfig,
	more func(pass int, elapsed time.Duration) bool, acc *layerAcc) timed {
	var t timed
	var passStarts []int
	m0 := snapMem()
	start := time.Now()
	for pass := 0; more(pass, time.Since(start)); pass++ {
		passStarts = append(passStarts, len(t.lat))
		for _, i := range rng.Perm(len(insts)) {
			in := insts[i]
			var tr *obs.Trace
			if acc != nil {
				tr = obs.NewTrace()
			}
			verifySeed := cfg.seed*1000 + int64(pass)
			t0 := time.Now()
			r, err := placeOp(in.body, verifySeed, tr)
			lat := ms(time.Since(t0))
			if err == nil {
				err = in.check(r)
			}
			if err != nil {
				rep.fail("%v", err)
			}
			t.add(in.key, lat, err == nil)
			if acc != nil && r.pl != nil {
				if err := acc.addOp(tr, r); err != nil {
					rep.fail("%s: %v", in.key, err)
				}
			}
		}
	}
	t.finish(start, m0)
	t.split = passStarts[len(passStarts)/2]
	if len(passStarts) < 2 {
		t.split = 0
	}
	return t
}

// recordExpected solves every in-process instance once and writes the
// answers as the expected-answer file.
func recordExpected(path string) error {
	out := map[string]expectedAnswer{}
	for _, set := range []inprocSet{fig7Tight, slackScale} {
		insts, err := buildInstances(set.defs, nil)
		if err != nil {
			return err
		}
		for _, in := range insts {
			r, err := placeOp(in.body, 1, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", in.key, err)
			}
			if r.violations > 0 {
				return fmt.Errorf("%s: %d verify violations", in.key, r.violations)
			}
			out[in.key] = expectedAnswer{Status: r.pl.Status.String(), TotalRules: r.pl.TotalRules}
			fmt.Fprintf(os.Stderr, "%s: %+v\n", in.key, out[in.key])
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
