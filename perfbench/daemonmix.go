package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/daemon"
	"rulefit/internal/load"
	"rulefit/internal/obs"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
)

const (
	// mixWindow is how many added rules each session keeps live: delta
	// j adds rule j and removes rule j−mixWindow. It equals the policy
	// count, so both halves of a batch touch one policy.
	mixWindow = 8
	// mixReads is the place reads per delta write. With one delta in
	// three ops, lat_p50_ms falls inside the place class and the p75
	// tail inside the delta class, a class-width away from the border.
	mixReads = 2
	// placePool is the number of distinct one-shot place instances;
	// enough that the pool's latency quantiles barely depend on the seed.
	placePool = 256
	// spotChecks is how many delta answers per session are re-solved
	// cold in process after the run.
	spotChecks = 3
)

// mixOp is one measured request.
type mixOp struct {
	client int
	delta  bool
	item   int // delta step, or place pool index
	ms     float64
	end    time.Duration
	code   int
	status string
	hash   uint64
	// Fields read only in traced phases.
	path     string
	serverMS float64
	timing   string
	cache    core.EncodeCacheStats
	sol      core.SolutionCacheStats
}

// mixSession is one client's session and its delta stream.
type mixSession struct {
	id        string
	initial   *spec.Problem
	ingresses []int
	base      int    // priority of added rule 0
	width     int    // header pattern width
	salt      uint32 // offsets the added rules' source addresses
	next      int    // next delta step
}

// newMixSession generates the `ruleload -delta` class instance for
// client c: a k=4 fat-tree, 8 policies × 100 rules, slack capacities.
// The instance is the same for every run seed, because what a delta
// costs depends on the policy it re-solves, and a seed-drawn instance
// made that cost vary more between seeds than between runs; the run
// seed picks the added rules instead.
func newMixSession(c int, seed int64) (*mixSession, error) {
	inst, err := randgen.Generate(randgen.Config{
		Seed: int64(c) + 1, Topo: randgen.TopoFatTree, FatTreeK: 4, Ingresses: 8,
		PathsPerIngress: 2, RulesPerPolicy: 100, Capacity: randgen.CapSlack,
	})
	if err != nil {
		return nil, err
	}
	s := &mixSession{initial: spec.FromCore(inst.Problem), salt: uint32(seed) * 40503}
	for _, pol := range s.initial.Policies {
		s.ingresses = append(s.ingresses, pol.Ingress)
		for _, r := range pol.Rules {
			if r.Priority >= s.base {
				s.base = r.Priority + 1
			}
		}
	}
	s.width = len(s.initial.Policies[0].Rules[0].Pattern)
	return s, nil
}

// delta is step j of the stream: add a drop rule whose source address
// in 10/8 encodes j (offset by the salt), and remove the rule added mixWindow steps earlier. No
// state recurs, so no answer can come from the session's identity
// memo, and the instance stays at most mixWindow rules larger.
func (s *mixSession) delta(j int) []spec.Delta {
	pat := []byte(strings.Repeat("*", s.width))
	src := uint32(10<<24) | (s.salt+uint32(j))&0xffffff
	for b := 0; b < 32; b++ {
		pat[b] = '0' + byte(src>>(31-b)&1)
	}
	out := []spec.Delta{{
		Op: spec.OpAddRule, Ingress: s.ingresses[j%len(s.ingresses)],
		Rule: &spec.Rule{Pattern: string(pat), Action: "drop", Priority: s.base + j},
	}}
	if j >= mixWindow {
		out = append(out, spec.Delta{
			Op: spec.OpRemoveRule, Ingress: s.ingresses[(j-mixWindow)%len(s.ingresses)],
			Priority: s.base + j - mixWindow,
		})
	}
	return out
}

// stateAt replays the stream's first n steps on the initial instance.
func (s *mixSession) stateAt(n int) (*spec.Problem, error) {
	p := s.initial.Clone()
	for j := 0; j < n; j++ {
		if err := p.ApplyAll(s.delta(j)); err != nil {
			return nil, fmt.Errorf("replaying delta %d: %w", j, err)
		}
	}
	return p, nil
}

// mixRig is one set-up: a daemon on loopback, its HTTP client, one
// session per client, and the place pool.
type mixRig struct {
	srv      *daemon.Server
	served   chan error
	base     string
	client   *http.Client
	sessions []*mixSession
	pool     *load.Workload
}

func startRig(seed int64, clients int) (*mixRig, error) {
	srv := daemon.New(daemon.Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	rig := &mixRig{
		srv:    srv,
		served: make(chan error, 1),
		base:   "http://" + srv.Addr(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
	}
	go func() { rig.served <- srv.Serve() }()
	pool, err := load.BuildWorkload(load.Config{Seed: seed, Requests: placePool})
	if err != nil {
		rig.stop()
		return nil, err
	}
	rig.pool = pool
	rig.sessions = make([]*mixSession, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = rig.openSession(c, seed)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		rig.stop()
		return nil, err
	}
	return rig, nil
}

func (rig *mixRig) openSession(c int, seed int64) error {
	s, err := newMixSession(c, seed)
	if err != nil {
		return err
	}
	prob, err := json.Marshal(s.initial)
	if err != nil {
		return err
	}
	body, err := json.Marshal(daemon.PlaceRequest{Problem: prob})
	if err != nil {
		return err
	}
	code, raw, _, err := rig.post("/v1/session", body)
	if err != nil {
		return err
	}
	if code != http.StatusOK && code != http.StatusCreated {
		return fmt.Errorf("session create: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	var sr struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(raw, &sr); err != nil {
		return err
	}
	s.id = sr.SessionID
	rig.sessions[c] = s
	return nil
}

// stop shuts the daemon down and waits for its serve loop to return.
func (rig *mixRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = rig.srv.Shutdown(ctx) // a drain that times out is reported by the serve loop's return
	<-rig.served
	rig.client.CloseIdleConnections()
}

func (rig *mixRig) post(path string, body []byte) (int, []byte, http.Header, error) {
	resp, err := rig.client.Post(rig.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header, err
}

// do issues op (delta or place, chosen by the caller) and reads the
// answer. traced additionally keeps Server-Timing and the session
// fields for the per-layer metrics.
func (rig *mixRig) do(op *mixOp, traced bool) error {
	var body []byte
	path := "/v1/place"
	if op.delta {
		s := rig.sessions[op.client]
		var err error
		if body, err = json.Marshal(daemon.DeltaRequest{Deltas: s.delta(op.item)}); err != nil {
			return err
		}
		path = "/v1/session/" + s.id + "/delta"
	} else {
		body = rig.pool.Items[op.item].Body
	}
	t0 := time.Now()
	code, raw, hdr, err := rig.post(path, body)
	op.ms = ms(time.Since(t0))
	op.code = code
	if err != nil || code != http.StatusOK {
		return err
	}
	var resp struct {
		WallMS    float64                 `json:"wall_ms"`
		Path      string                  `json:"path"`
		Cache     core.EncodeCacheStats   `json:"cache"`
		Solutions core.SolutionCacheStats `json:"solutions"`
		Placement json.RawMessage         `json:"placement"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	var pl struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(resp.Placement, &pl); err != nil {
		return err
	}
	op.status = pl.Status
	op.hash = hashBytes(bytes.TrimSpace(resp.Placement))
	op.path = resp.Path
	if traced {
		op.serverMS = resp.WallMS
		op.timing = hdr.Get("Server-Timing")
		op.cache, op.sol = resp.Cache, resp.Solutions
	}
	return nil
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// loop runs every client closed-loop for d: each client repeats one
// delta write followed by mixReads place reads. A client waits for an
// answer before it sends again, as a controller waits for a placement
// before it installs tables.
func (rig *mixRig) loop(seed int64, d time.Duration, traced bool, warmup bool) []mixOp {
	start := time.Now()
	per := make([][]mixOp, len(rig.sessions))
	var wg sync.WaitGroup
	for c := range rig.sessions {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := rig.sessions[c]
			rng := rand.New(rand.NewSource(seed*1000 + int64(c) + int64(s.next)))
			for k := 0; ; k++ {
				if warmup && s.next >= mixWindow && k%(mixReads+1) == 0 {
					return
				}
				if !warmup && time.Since(start) >= d {
					return
				}
				op := mixOp{client: c, delta: k%(mixReads+1) == 0}
				if op.delta {
					op.item = s.next
					s.next++
				} else {
					op.item = rng.Intn(len(rig.pool.Items))
				}
				if err := rig.do(&op, traced); err != nil {
					op.status = "error: " + err.Error()
				}
				op.end = time.Since(start)
				per[c] = append(per[c], op)
			}
		}(c)
	}
	wg.Wait()
	var ops []mixOp
	for _, p := range per {
		ops = append(ops, p...)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	return ops
}

// runDaemonMix runs the daemon workload with nproc closed-loop
// clients, within the default admission slots, so a 429 is a fault.
func runDaemonMix(cfg runConfig) (*report, error) {
	clients := runtime.NumCPU()
	rep := &report{}
	var rig *mixRig
	for i := 0; i < setupReps; i++ {
		if rig != nil {
			rig.stop()
		}
		start := time.Now()
		var err error
		if rig, err = startRig(cfg.seed, clients); err != nil {
			return nil, err
		}
		// Warm-up fills each session's window of added rules.
		if ops := rig.loop(cfg.seed, 0, false, true); failedOps(ops) > 0 {
			rig.stop()
			return nil, fmt.Errorf("warm-up: %d of %d requests failed", failedOps(ops), len(ops))
		}
		rep.setup = append(rep.setup, time.Since(start).Seconds())
	}
	defer rig.stop()

	run := cfg.seconds
	if cfg.traced {
		run /= 2
	}
	ops, t := rig.timedLoop(cfg.seed, run, false)
	rep.timed = t
	var tracedOps []mixOp
	if cfg.traced {
		tracedOps, rep.traced = rig.timedLoop(cfg.seed, run, true)
	}

	// Answers are checked after the timed loop: in-process solves
	// beside it would take the daemon's CPUs.
	var acc *layerAcc
	if cfg.traced {
		acc = newLayerAcc()
	}
	refs, err := rig.placeRefs(cfg.seed, acc, rep)
	if err != nil {
		return nil, err
	}
	rep.timed.failed = rig.checkOps(ops, refs, rep)
	if cfg.traced {
		rep.traced.failed = rig.checkOps(tracedOps, refs, rep)
		rep.layers = layerMetrics(acc, mixLayers(tracedOps), &rep.traced, &rep.timed)
		rep.tree = acc.tree
		rep.tree.finish(acc.ops)
	}
	return rep, nil
}

// failedOps counts answers that are wrong on their face: an HTTP
// error, a delta that is not optimal, or a place that hit its limit.
// Infeasible is a valid place answer (randgen draws tight capacities).
func failedOps(ops []mixOp) int {
	n := 0
	for _, op := range ops {
		if op.code != http.StatusOK || (op.delta && op.status != "optimal") ||
			(!op.delta && (op.status == "limit" || strings.HasPrefix(op.status, "error"))) {
			n++
		}
	}
	return n
}

// timedLoop runs the client loop for d and brackets it with the
// runtime counters.
func (rig *mixRig) timedLoop(seed int64, d time.Duration, traced bool) ([]mixOp, timed) {
	var t timed
	m0 := snapMem()
	start := time.Now()
	ops := rig.loop(seed, d, traced, false)
	for _, op := range ops {
		t.add("", op.ms, true)
	}
	t.finish(start, m0)
	t.split = len(ops) / 2
	return ops, t
}

// placeRef is the in-process answer to one pool item.
type placeRef struct {
	hash uint64
	err  error
}

// placeRefs solves every pool item in process with the daemon's
// options, projects it through the daemon's wire encoding, and
// verifies it. With acc set the solves are traced into acc.
func (rig *mixRig) placeRefs(seed int64, acc *layerAcc, rep *report) ([]placeRef, error) {
	refs := make([]placeRef, len(rig.pool.Items))
	for i, item := range rig.pool.Items {
		var tr *obs.Trace
		if acc != nil {
			tr = obs.NewTrace()
		}
		r, err := placeOp(item.Problem, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("pool item %d: %w", i, err)
		}
		switch {
		case r.pl.Status == core.StatusLimit:
			refs[i].err = fmt.Errorf("pool item %d: status %v", i, r.pl.Status)
		case r.violations > 0:
			refs[i].err = fmt.Errorf("pool item %d: %d verify violations", i, r.violations)
		}
		wire, err := json.Marshal(daemon.EncodePlacement(r.pl))
		if err != nil {
			return nil, err
		}
		refs[i].hash = hashBytes(wire)
		if acc != nil {
			if err := acc.addOp(tr, r); err != nil {
				rep.fail("pool item %d: %v", i, err)
			}
		}
	}
	return refs, nil
}

// checkOps counts failed answers: any non-200 (a 429 included), a
// place answer that differs from its in-process reference, a delta
// that is not optimal, and a spot-checked delta whose warm answer
// differs from a cold in-process solve of the same instance.
func (rig *mixRig) checkOps(ops []mixOp, refs []placeRef, rep *report) int {
	failed := 0
	lastDelta := make([][]int, len(rig.sessions))
	for i, op := range ops {
		var err error
		switch {
		case op.code != http.StatusOK:
			err = fmt.Errorf("HTTP %d (%s)", op.code, op.status)
		case op.delta && op.status != "optimal":
			err = fmt.Errorf("delta step %d: status %s", op.item, op.status)
		case op.delta:
			lastDelta[op.client] = append(lastDelta[op.client], i)
		case refs[op.item].err != nil:
			err = refs[op.item].err
		case refs[op.item].hash != op.hash:
			err = fmt.Errorf("place item %d: answer differs from the in-process placement", op.item)
		}
		if err != nil {
			failed++
			rep.fail("client %d: %v", op.client, err)
		}
	}
	for c, idx := range lastDelta {
		for k := 0; k < spotChecks && k < len(idx); k++ {
			op := ops[idx[len(idx)-1-k*len(idx)/spotChecks]]
			if err := rig.coldCheck(c, op); err != nil {
				failed++
				rep.fail("client %d: %v", c, err)
			}
		}
	}
	return failed
}

// coldCheck re-solves the instance a delta answer belongs to from
// scratch in process and compares placements byte for byte.
func (rig *mixRig) coldCheck(c int, op mixOp) error {
	s := rig.sessions[c]
	p, err := s.stateAt(op.item + 1)
	if err != nil {
		return err
	}
	body, err := json.Marshal(p)
	if err != nil {
		return err
	}
	r, err := placeOp(body, 1, nil)
	if err != nil {
		return err
	}
	wire, err := json.Marshal(daemon.EncodePlacement(r.pl))
	if err != nil {
		return err
	}
	if hashBytes(wire) != op.hash {
		return fmt.Errorf("delta step %d: warm answer differs from cold", op.item)
	}
	if r.violations > 0 {
		return fmt.Errorf("delta step %d: %d verify violations", op.item, r.violations)
	}
	return nil
}

// mixLayers folds traced ops into the daemon and session layer sums.
func mixLayers(ops []mixOp) *daemonAcc {
	d := &daemonAcc{}
	for _, op := range ops {
		if op.code == http.StatusTooManyRequests {
			d.shed++
		}
		if op.code != http.StatusOK {
			continue
		}
		phases := parseServerTiming(op.timing)
		if op.delta {
			d.deltas++
			d.deltaMS = append(d.deltaMS, op.ms)
			d.serverDelta += op.serverMS
			d.wire += op.ms - op.serverMS
			if op.path == "warm" {
				d.warm++
			}
			d.encHits += op.cache.PolicyHits + op.cache.MergeHits
			d.encLookups += op.cache.PolicyHits + op.cache.PolicyMisses + op.cache.MergeHits + op.cache.MergeMisses
			d.solHits += op.sol.Hits
			d.solLookups += op.sol.Hits + op.sol.Misses
			continue
		}
		d.places++
		d.placeMS = append(d.placeMS, op.ms)
		var sum float64
		for name, v := range phases {
			sum += v
			switch name {
			case "queue_wait":
				d.queueWait += v
			case "parse":
				d.parse += v
			case "encode", "model_build":
				d.encode += v
			case "solve", "decompose":
				d.solve += v
			case "extract":
				d.extr += v
			}
		}
		d.wire += op.ms - sum
	}
	return d
}

// parseServerTiming reads "name;dur=ms, ..." into per-name sums.
func parseServerTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(dur, 64); err == nil {
			out[name] += v
		}
	}
	return out
}
