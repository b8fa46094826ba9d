package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/obs"
	"rulefit/internal/spec"
	"rulefit/internal/state"
)

// Session API (the stateful delta path):
//
//	POST   /v1/session            create a session from a PlaceRequest
//	GET    /v1/session/{id}       current version + placement
//	POST   /v1/session/{id}/delta apply a delta batch, re-solve
//	DELETE /v1/session/{id}       drop the session
//
// Every delta answer is byte-identical to a cold /v1/place of the
// fully-updated instance (the diffcheck delta oracle enforces this);
// the session only changes how fast the answer arrives, via the
// identity/warm/cold fallback ladder in internal/state.

// DeltaRequest is the POST /v1/session/{id}/delta body.
type DeltaRequest struct {
	Deltas []spec.Delta `json:"deltas"`
}

// SessionResponse is the create/get/delta reply. Placement carries
// the same determinism contract as PlaceResponse; SessionID, Version,
// Path, Cache, and WallMS are session bookkeeping.
type SessionResponse struct {
	TraceID   string `json:"trace_id"`
	SessionID string `json:"session_id"`
	Version   uint64 `json:"version"`
	// Path is the fallback-ladder level that answered ("identity",
	// "warm", "cold"); empty on GET.
	Path string `json:"path,omitempty"`
	//lint:detsource measured latency is the point of this field
	WallMS float64 `json:"wall_ms"`
	// Cache reports the encode-cache lookups this answer consumed.
	Cache core.EncodeCacheStats `json:"cache"`
	// Solutions reports the per-policy fragment-cache lookups this
	// answer consumed (decomposed solve path only).
	Solutions core.SolutionCacheStats `json:"solutions"`
	Placement Placement               `json:"placement"`
}

// sessionDeleteResponse is the DELETE /v1/session/{id} reply.
type sessionDeleteResponse struct {
	TraceID   string `json:"trace_id"`
	SessionID string `json:"session_id"`
	Deleted   bool   `json:"deleted"`
}

// sessionAnswer is the create/delta reply for a solved session.
func sessionAnswer(traceID, id string, res *state.Result) *SessionResponse {
	return &SessionResponse{TraceID: traceID, SessionID: id, Version: res.Version,
		Path: res.Path, Cache: res.CacheStats, Solutions: res.SolStats,
		Placement: EncodePlacement(res.Placement)}
}

// recordSessionSolve folds one session answer into the metrics.
func (s *Server) recordSessionSolve(res *state.Result) {
	s.met.RecordEncodeCache("policy", res.CacheStats.PolicyHits, res.CacheStats.PolicyMisses)
	s.met.RecordEncodeCache("merge", res.CacheStats.MergeHits, res.CacheStats.MergeMisses)
	s.met.RecordEncodeCache("solution", res.SolStats.Hits, res.SolStats.Misses)
}

// handleSessionCreate serves POST /v1/session: it parses a
// PlaceRequest, normalizes the instance to fully explicit spec form,
// runs the initial cold solve, and returns the session ID.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, st, prog, done, ok := s.admitSolve(w, r, "session_create")
	if !ok {
		s.finish(w, r, st)
		return
	}
	defer done()

	parseStart := time.Now()
	desc, prob, opts, err := s.parsePlaceRequest(body)
	if err == nil {
		err = prob.Validate()
	}
	if err != nil {
		st.code, st.status, st.err = http.StatusBadRequest, "bad_request", err
		s.finish(w, r, st)
		return
	}
	// The session's authoritative state is the explicit flattening of
	// the built instance, so generated topologies/policies delta the
	// same as hand-written ones. Monitor declarations ride along for
	// GET visibility; core-level monitors are fixed in opts.
	explicit := spec.FromCore(prob)
	explicit.Monitors = append([]spec.Monitor(nil), desc.Monitors...)
	st.parse = time.Since(parseStart)
	var sess *state.Session
	var res *state.Result
	_, err = s.observeSolve(r, &st, prog, func(tr *obs.Trace, sink obs.Sink) (*core.Placement, error) {
		opts.Trace, opts.SolverSink = tr, sink
		var err error
		if sess, res, err = s.sessions.Create(explicit, opts); err != nil {
			return nil, err
		}
		return res.Placement, nil
	})
	if err != nil {
		solveFailed(&st, err)
		s.finish(w, r, st)
		return
	}
	s.met.Sessions().Set(int64(s.sessions.Len()))
	s.recordSessionSolve(res)
	st.code, st.status = http.StatusCreated, res.Placement.Status.String()
	st.placement = res.Placement
	st.body = sessionAnswer(st.traceID, sess.ID(), res)
	s.finish(w, r, st)
}

// handleSession routes /v1/session/{id} and /v1/session/{id}/delta.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/session/")
	parts := strings.Split(rest, "/")
	switch {
	case len(parts) == 1 && parts[0] != "":
		switch r.Method {
		case http.MethodGet:
			s.handleSessionGet(w, r, parts[0])
		case http.MethodDelete:
			s.handleSessionDelete(w, r, parts[0])
		default:
			w.Header().Set("Allow", "GET, DELETE")
			http.Error(w, "GET or DELETE only", http.StatusMethodNotAllowed)
		}
	case len(parts) == 2 && parts[0] != "" && parts[1] == "delta":
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		s.handleSessionDelta(w, r, parts[0])
	default:
		http.NotFound(w, r)
	}
}

// notFoundSession fills st for an unknown/evicted session (404 with a
// trace ID, joinable with the log line).
func notFoundSession(st *requestState, err error) {
	st.code, st.status, st.err = http.StatusNotFound, "not_found", err
}

// handleSessionDelta serves POST /v1/session/{id}/delta.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request, id string) {
	body, st, prog, done, ok := s.admitSolve(w, r, "session_delta")
	if !ok {
		s.finish(w, r, st)
		return
	}
	defer done()

	parseStart := time.Now()
	var req DeltaRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		st.code, st.status, st.err = http.StatusBadRequest, "bad_request", err
		s.finish(w, r, st)
		return
	}
	st.parse = time.Since(parseStart)
	sess, err := s.sessions.Get(id)
	if err != nil {
		notFoundSession(&st, err)
		s.finish(w, r, st)
		return
	}
	var res *state.Result
	_, err = s.observeSolve(r, &st, prog, func(tr *obs.Trace, sink obs.Sink) (*core.Placement, error) {
		var err error
		if res, err = sess.Delta(req.Deltas, tr, sink); err != nil {
			return nil, err
		}
		return res.Placement, nil
	})
	if err != nil {
		solveFailed(&st, err)
		s.finish(w, r, st)
		return
	}
	s.met.RecordDelta(res.Path)
	s.recordSessionSolve(res)
	st.code, st.status = http.StatusOK, res.Placement.Status.String()
	st.placement = res.Placement
	st.body = sessionAnswer(st.traceID, sess.ID(), res)
	s.finish(w, r, st)
}

// handleSessionGet serves GET /v1/session/{id}: the current version
// and placement, no solve.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request, id string) {
	traceID := obs.TraceIDFor(s.seq.Add(1), []byte(r.URL.Path))
	st := requestState{traceID: traceID, op: "session_get", start: time.Now()}
	sess, err := s.sessions.Get(id)
	if err != nil {
		notFoundSession(&st, err)
		s.finish(w, r, st)
		return
	}
	version, pl, _ := sess.Snapshot()
	st.code, st.status = http.StatusOK, pl.Status.String()
	st.body = &SessionResponse{
		TraceID:   st.traceID,
		SessionID: sess.ID(),
		Version:   version,
		Cache:     sess.CacheStats(),
		Solutions: sess.SolutionStats(),
		Placement: EncodePlacement(pl),
	}
	s.finish(w, r, st)
}

// handleSessionDelete serves DELETE /v1/session/{id}.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request, id string) {
	traceID := obs.TraceIDFor(s.seq.Add(1), []byte(r.URL.Path))
	st := requestState{traceID: traceID, op: "session_delete", start: time.Now()}
	if !s.sessions.Delete(id) {
		notFoundSession(&st, fmt.Errorf("%w: %s", state.ErrNoSession, id))
		s.finish(w, r, st)
		return
	}
	s.met.Sessions().Set(int64(s.sessions.Len()))
	st.code, st.status = http.StatusOK, "deleted"
	st.body = &sessionDeleteResponse{TraceID: traceID, SessionID: id, Deleted: true}
	s.finish(w, r, st)
}
