package obs

import (
	"io"
	"sync"
	"sync/atomic"
)

// FlightRecorder is an always-on Sink holding the most recent events in
// a fixed-size ring — the solver's black box. Unlike the JSONL trace
// (which must be enabled before a run and records everything), the
// recorder is cheap enough to leave attached in production: recording
// one event is a TryLock, a struct copy into the ring (which grows by
// append up to its Size, so a short solve's per-request ring stays
// small), and two counter bumps. When the lock is contended — a Dump
// in progress, or concurrent solves sharing one recorder — the event is
// dropped rather than waited for, and the drop is counted. The recorder
// therefore degrades (loses events) under pressure instead of adding
// latency, which is the right trade for a diagnostic tail buffer.
//
// The solver's contract is unchanged: the recorder is a Sink, nothing
// is read back, and a solve with a recorder attached returns bytes
// identical to one without (TestPlaceFlightRecorderDoesNotPerturb).
type FlightRecorder struct {
	mu   sync.Mutex
	ring []Event
	next int    // ring index of the next write
	wrap bool   // ring has wrapped at least once
	hot  uint64 // node/skip events seen, for SampleHot decimation
	// phase is the last solver phase a KindPhase event opened (not the
	// request owner's closing "done"): the ring's tail may long have
	// overwritten that event itself.
	phase string

	opts FlightOpts

	seen    atomic.Uint64 // events offered to the recorder
	dropped atomic.Uint64 // events lost to lock contention
	sampled atomic.Uint64 // hot events intentionally decimated
}

// FlightOpts sizes a FlightRecorder. The zero value is NOT a valid
// production configuration — state Size explicitly (the optzero
// analyzer flags literals that leave it unset) so the retention window
// is a deliberate choice; NewFlightRecorder applies defaults for tests.
type FlightOpts struct {
	// Size is the ring capacity in events (default 4096). The ring keeps
	// the most recent Size events; older ones are overwritten.
	Size int
	// SampleHot, when > 1, records only every SampleHot-th high-volume
	// event (node expansions and stale skips), stretching the ring's
	// time window on deep searches. Low-volume events (incumbents, gap
	// points, done) are always recorded. Default 1: record everything.
	SampleHot int
}

// defaults fills unset fields.
func (o FlightOpts) defaults() FlightOpts {
	if o.Size <= 0 {
		o.Size = 4096
	}
	if o.SampleHot < 1 {
		o.SampleHot = 1
	}
	return o
}

// NewFlightRecorder returns a recorder with the given ring size.
func NewFlightRecorder(opts FlightOpts) *FlightRecorder {
	opts = opts.defaults()
	return &FlightRecorder{opts: opts}
}

// Event records one event, or drops it if the ring is contended.
func (r *FlightRecorder) Event(e Event) {
	r.seen.Add(1)
	if !r.mu.TryLock() {
		r.dropped.Add(1)
		return
	}
	if r.opts.SampleHot > 1 && (e.Kind == KindNode || e.Kind == KindSkip) {
		r.hot++
		if r.hot%uint64(r.opts.SampleHot) != 0 {
			r.mu.Unlock()
			r.sampled.Add(1)
			return
		}
	}
	if e.Kind == KindPhase && e.Phase != "done" {
		r.phase = e.Phase //lint:sharedmut r.mu is held: the TryLock above succeeded or we returned
	}
	if r.wrap {
		r.ring[r.next] = e
	} else {
		r.ring = append(r.ring, e) //lint:sharedmut r.mu is held: the TryLock above succeeded or we returned
	}
	r.next++ //lint:sharedmut r.mu is held: the TryLock above succeeded or we returned
	if r.next == r.opts.Size {
		r.next = 0 //lint:sharedmut r.mu is held: the TryLock above succeeded or we returned
		r.wrap = true
	}
	r.mu.Unlock()
}

// FlightDump is a point-in-time copy of the recorder's contents plus
// its loss accounting. Seen >= len(Events): the difference is events
// overwritten by the ring, dropped under contention, or decimated by
// SampleHot.
type FlightDump struct {
	// Events holds the retained events, oldest first.
	Events []Event
	// Seen counts every event offered to the recorder since creation.
	Seen uint64
	// Dropped counts events lost to lock contention (a Dump in
	// progress, or concurrent solves sharing the recorder).
	Dropped uint64
	// Sampled counts hot events decimated by FlightOpts.SampleHot.
	Sampled uint64
	// Phase is the last solver phase the recorder saw open.
	Phase string
}

// Dump snapshots the ring. It takes the lock (blocking), so concurrent
// Event calls during the copy count as dropped rather than stalling a
// solve.
func (r *FlightRecorder) Dump() FlightDump {
	r.mu.Lock()
	d := FlightDump{
		Seen:    r.seen.Load(),
		Dropped: r.dropped.Load(),
		Sampled: r.sampled.Load(),
		Phase:   r.phase,
	}
	if r.wrap {
		d.Events = make([]Event, 0, len(r.ring))
		d.Events = append(d.Events, r.ring[r.next:]...)
		d.Events = append(d.Events, r.ring[:r.next]...)
	} else {
		d.Events = append([]Event(nil), r.ring[:r.next]...)
	}
	r.mu.Unlock()
	return d
}

// WriteJSONL writes the dump as a JSONL stream readable by
// obs.ReadEvents and summarizable by obs/traceview: a flight_meta
// header line carrying the loss accounting, then the retained events
// oldest first. Partial by construction — the ring holds a tail of the
// stream — so traceview treats the meta line as permission to relax
// its completeness checks.
func (d FlightDump) WriteJSONL(w io.Writer) error {
	jw := NewJSONLWriter(w)
	jw.Event(Event{Kind: KindFlightMeta, Node: len(d.Events),
		Seen: int(d.Seen), Dropped: int(d.Dropped), Sampled: int(d.Sampled), Phase: d.Phase,
		BranchVar: -1, Gap: -1})
	for _, e := range d.Events {
		jw.Event(e)
	}
	return jw.Flush()
}
