package daemon

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/ilp"
	"rulefit/internal/obs"
)

// This file is the daemon's solve-introspection layer. Every
// solve-bound request (place, session create, session delta) runs
// through observeSolve, which fans the request's one solver event
// stream, tagged with its trace ID, out to:
//
//   - the request's obs.Progress cell, registered in a registry of
//     live requests that /debug/solvez (and /statusz) read lock-free;
//   - a per-request flight ring and the server's global always-on
//     ring; rings are dumped as JSONL (traceview-parseable) when a
//     solve dies hard — deadline, node limit, panic — on admission
//     shed, or on demand via /debug/flightz;
//   - pprof goroutine labels (trace_id, phase) when threshold-triggered
//     profiling is armed: a per-request watchdog captures a CPU profile
//     for solves outrunning Config.ProfileThreshold;
//   - the optional per-request JSONL trace file (Config.TraceDir).
//
// Everything here is observational. Placements are byte-identical
// with the whole layer on or off (TestIntrospectionNoPlacementEffect).

// solveReg tracks the progress cells of requests currently inside the
// daemon. Registration is cheap (one map insert per request); reads
// copy the latest snapshot of each cell without blocking writers.
type solveReg struct {
	mu    sync.Mutex
	cells map[string]*obs.Progress
	// finished, when set (tests only), receives each request's last
	// snapshot as it deregisters.
	finished func(obs.ProgressSnapshot)
}

func newSolveReg() *solveReg {
	return &solveReg{cells: make(map[string]*obs.Progress)}
}

// admit registers a fresh progress cell under the request's trace ID,
// reading "admitted" until the solver's first phase event.
func (g *solveReg) admit(traceID string) *obs.Progress {
	p := &obs.Progress{}
	p.Publish(obs.ProgressSnapshot{TraceID: traceID, Phase: "admitted", Gap: -1})
	g.mu.Lock()
	g.cells[traceID] = p
	g.mu.Unlock()
	return p
}

// remove deregisters a finished request.
func (g *solveReg) remove(traceID string) {
	g.mu.Lock()
	p := g.cells[traceID]
	delete(g.cells, traceID)
	finished := g.finished
	g.mu.Unlock()
	if snap, ok := p.Snapshot(); ok && finished != nil {
		finished(snap)
	}
}

// snapshots returns the latest snapshot of every live cell, sorted by
// trace ID so the JSON is stable for tests and scrapes.
func (g *solveReg) snapshots() []obs.ProgressSnapshot {
	g.mu.Lock()
	out := make([]obs.ProgressSnapshot, 0, len(g.cells))
	for _, p := range g.cells { //lint:mapdet output is sorted by trace ID below
		if snap, ok := p.Snapshot(); ok {
			out = append(out, snap)
		}
	}
	g.mu.Unlock()
	if len(out) == 0 {
		return nil // keep idle /statusz snapshots field-free (omitempty)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TraceID < out[j].TraceID })
	return out
}

// solvezResponse is the /debug/solvez JSON body.
type solvezResponse struct {
	Count  int                    `json:"count"`
	Active []obs.ProgressSnapshot `json:"active"`
}

// handleSolvez serves /debug/solvez: one snapshot per request
// currently inside the daemon (queued, solving, or finishing), newest
// state of each. Empty list when idle.
func (s *Server) handleSolvez(w http.ResponseWriter, _ *http.Request) {
	snaps := s.solves.snapshots()
	if snaps == nil {
		snaps = []obs.ProgressSnapshot{}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(solvezResponse{Count: len(snaps), Active: snaps}); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "solvez",
			slog.String("error", err.Error()))
	}
}

// handleFlightz serves /debug/flightz: the global flight ring dumped
// as JSONL, on demand. The dump is the tail of recent solver events
// across all requests (each event carries its trace_id), headed by a
// flight_meta line with the loss accounting — exactly the format
// obs/traceview summarizes.
func (s *Server) handleFlightz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	if err := s.flight.Dump().WriteJSONL(w); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "flightz",
			slog.String("error", err.Error()))
	}
}

// observeSolve runs solve (one request's core.Place, directly or via
// the session layer) with a span trace carrying the request's ID (left
// in st.trace) and one event stream tagged with it and fanned out to
// the consumers above. It arms the profile watchdog, dumps the
// per-request ring on panic or a deadline/node-limit stop, and
// restores the handler goroutine's pprof labels afterwards.
func (s *Server) observeSolve(r *http.Request, st *requestState, prog *obs.Progress,
	solve func(tr *obs.Trace, sink obs.Sink) (*core.Placement, error)) (pl *core.Placement, err error) {
	st.trace = obs.NewTrace()
	st.trace.SetID(st.traceID)
	rec := obs.NewFlightRecorder(obs.FlightOpts{Size: s.cfg.FlightEvents})
	sinks := []obs.Sink{rec, s.flight, prog}
	if s.cfg.TraceDir != "" {
		f, err := os.Create(filepath.Join(s.cfg.TraceDir, "trace-"+st.traceID+".jsonl"))
		if err != nil {
			return nil, err
		}
		jw := obs.NewJSONLWriter(f)
		defer func() {
			if ferr := jw.Flush(); ferr != nil && err == nil {
				err = ferr
			}
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		sinks = append(sinks, jw)
	}
	if s.cfg.ProfileThreshold > 0 {
		sinks = append(sinks, pprofLabels{ctx: r.Context()})
		defer pprof.SetGoroutineLabels(r.Context())
	}
	stopProf := s.watchProfile(st.traceID)
	defer stopProf()
	defer func() {
		if p := recover(); p != nil {
			s.dumpFlight(rec, st.traceID, "panic")
			panic(p)
		}
	}()
	pl, err = solve(st.trace, obs.Tag(st.traceID, obs.Multi(sinks...)))
	// A solve that died on its budget gets an automatic post-mortem.
	if err == nil && (pl.Stats.StopReason == ilp.StopDeadline || pl.Stats.StopReason == ilp.StopNodeLimit) {
		s.dumpFlight(rec, st.traceID, pl.Stats.StopReason.String())
	}
	return pl, err
}

// pprofLabels labels the solving goroutine for CPU profiles: each
// phase event sets trace_id and phase on top of the handler context's
// labels, and worker goroutines spawned by the phase inherit them.
type pprofLabels struct {
	ctx context.Context
}

func (l pprofLabels) Event(e obs.Event) {
	if e.Kind != obs.KindPhase {
		return
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(l.ctx,
		pprof.Labels("trace_id", e.TraceID, "phase", e.Phase)))
}

// dumpFlight writes a recorder's ring to <FlightDir>/flight-<name>.jsonl.
// Called when a solve ends in a state worth a post-mortem (deadline,
// node limit, panic) or when admission sheds. No-op without a
// FlightDir; failures are logged, never surfaced to the client.
func (s *Server) dumpFlight(rec *obs.FlightRecorder, name, reason string) {
	if s.cfg.FlightDir == "" || rec == nil {
		return
	}
	path := filepath.Join(s.cfg.FlightDir, "flight-"+name+".jsonl")
	d := rec.Dump()
	f, err := os.Create(path)
	if err == nil {
		err = d.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "flight_dump",
			slog.String("trace_id", name), slog.String("error", err.Error()))
		return
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "flight_dump",
		slog.String("trace_id", name), slog.String("reason", reason),
		slog.String("path", path), slog.Int("events", len(d.Events)),
		slog.Uint64("seen", d.Seen), slog.Uint64("dropped", d.Dropped))
}

// dumpOnShed dumps the global ring when admission sheds a request, at
// most once per second — a shed storm must not turn into a disk storm.
func (s *Server) dumpOnShed(traceID string) {
	if s.cfg.FlightDir == "" {
		return
	}
	sec := s.now().Unix()
	last := s.shedDumpSec.Load()
	if last == sec || !s.shedDumpSec.CompareAndSwap(last, sec) {
		return
	}
	s.dumpFlight(s.flight, "shed-"+traceID, "shed")
}

// cpuProfileActive guards the one CPU profile the runtime allows per
// process: whichever slow solve trips its watchdog first wins; the
// rest skip quietly and their wall time still lands in the phase
// histograms.
var cpuProfileActive atomic.Bool

// profWatch is one request's profiling watchdog. The timer callback
// and the stop path race by construction (a solve can finish exactly
// at the threshold), so both run under mu.
type profWatch struct {
	timer *time.Timer
	mu    sync.Mutex
	file  *os.File
	armed bool // profile running, owned by this watch
	done  bool // stop() ran; a late timer fire must do nothing
}

// watchProfile arms a watchdog: if the request is still running after
// cfg.ProfileThreshold, a CPU profile starts and runs until the solve
// ends, written as <ProfileDir>/profile-<trace_id>.pprof. The returned
// stop must be deferred by the caller. Zero threshold or empty
// ProfileDir disables the watchdog entirely.
func (s *Server) watchProfile(traceID string) (stop func()) {
	if s.cfg.ProfileThreshold <= 0 || s.cfg.ProfileDir == "" {
		return func() {}
	}
	w := &profWatch{}
	w.timer = time.AfterFunc(s.cfg.ProfileThreshold, func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.done {
			return
		}
		if !cpuProfileActive.CompareAndSwap(false, true) {
			return // someone else's profile is running
		}
		path := filepath.Join(s.cfg.ProfileDir, "profile-"+traceID+".pprof")
		f, err := os.Create(path)
		if err != nil {
			cpuProfileActive.Store(false)
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "profile_start",
				slog.String("trace_id", traceID), slog.String("error", err.Error()))
			return
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(path)
			cpuProfileActive.Store(false)
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "profile_start",
				slog.String("trace_id", traceID), slog.String("error", err.Error()))
			return
		}
		w.file = f
		w.armed = true
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "profile_started",
			slog.String("trace_id", traceID), slog.String("path", path))
	})
	return func() {
		w.timer.Stop()
		w.mu.Lock()
		defer w.mu.Unlock()
		w.done = true
		if !w.armed {
			return
		}
		pprof.StopCPUProfile()
		if err := w.file.Close(); err != nil {
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "profile_close",
				slog.String("trace_id", traceID), slog.String("error", err.Error()))
		}
		w.armed = false
		cpuProfileActive.Store(false)
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "profile_done",
			slog.String("trace_id", traceID))
	}
}
