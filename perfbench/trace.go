package main

// Benchmark-side tracing. The traced run records one span per layer
// boundary from this package's own code (request → Fleet.Serve → replica
// ServeCtx), and hands a reqtrace span to ServeCtx so the program's own
// queue.wait, tier.* and forward.* spans become children of the replica
// span. Spans are kept in memory and written out when the run ends.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"harpte/internal/obs/reqtrace"
)

// span is one timed operation. Spans of one request share trace.
type span struct {
	Trace  int64             `json:"trace"`
	ID     int               `json:"id"`
	Parent int               `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	batch  string            // the reqtrace batch trace this tier.full span joined
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog is the in-memory span store of one traced phase. A nil
// *spanLog records nothing, so untraced runs pay one nil check per
// boundary.
type spanLog struct {
	mu     sync.Mutex
	spans  []span
	traces int64
	rec    *reqtrace.Recorder
	// bound maps a reqtrace trace to the benchmark span it runs under.
	bound map[reqtrace.TraceID]int
}

func newSpanLog() *spanLog {
	return &spanLog{
		// Keep every trace: SampleEvery 1 retains all, and the ring is
		// sized far above what one traced phase produces.
		rec:   reqtrace.NewRecorder(reqtrace.Options{Capacity: 1 << 16, SampleEvery: 1}),
		bound: make(map[reqtrace.TraceID]int),
	}
}

// scope is the position of the running code in the benchmark's span tree.
type scope struct {
	log    *spanLog
	trace  int64
	parent int
}

type scopeKey struct{}

func scopeFrom(ctx context.Context) scope {
	s, _ := ctx.Value(scopeKey{}).(scope)
	return s
}

// newTrace opens a root span for one request and returns the context
// carrying it, plus the function that ends it.
func (l *spanLog) newTrace(ctx context.Context, name string) (context.Context, func()) {
	if l == nil {
		return ctx, func() {}
	}
	l.mu.Lock()
	l.traces++
	tr := l.traces
	l.mu.Unlock()
	return startSpan(context.WithValue(ctx, scopeKey{}, scope{log: l, trace: tr}), name)
}

// startSpan opens a child of the span in ctx. Without a traced scope it
// returns ctx unchanged and a no-op end.
func startSpan(ctx context.Context, name string) (context.Context, func()) {
	sc := scopeFrom(ctx)
	if sc.log == nil {
		return ctx, func() {}
	}
	id := sc.log.open(sc.trace, sc.parent, name)
	return context.WithValue(ctx, scopeKey{}, scope{log: sc.log, trace: sc.trace, parent: id}),
		func() { sc.log.close(id) }
}

func (l *spanLog) open(trace int64, parent int, name string) int {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Trace: trace, ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(l.spans)
}

func (l *spanLog) close(id int) {
	now := time.Now()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// programTrace starts a reqtrace trace under the span in ctx, so the
// program's own spans nest beneath it. It returns the context to pass to
// ServeCtx and the function that ends the program trace.
func programTrace(ctx context.Context) (context.Context, func()) {
	sc := scopeFrom(ctx)
	if sc.log == nil {
		return ctx, func() {}
	}
	pctx, root := sc.log.rec.StartTrace(ctx, "serve")
	sc.log.mu.Lock()
	sc.log.bound[root.TraceID()] = sc.parent
	sc.log.mu.Unlock()
	return pctx, root.End
}

// merge imports the program's reqtrace spans into the log: spans of a
// bound trace become children of the benchmark span they ran under;
// linked batch traces become roots of their own.
func (l *spanLog) merge() {
	dump := l.rec.Snapshot()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, td := range dump.Traces {
		id, err := strconv.ParseUint(td.Trace, 16, 64)
		if err != nil {
			continue
		}
		parent, ok := l.bound[reqtrace.TraceID(id)]
		trace := int64(0)
		if ok {
			trace = l.spans[parent-1].Trace
		} else {
			l.traces++
			trace = l.traces
		}
		ids := make(map[uint64]int, len(td.Spans))
		for _, sd := range td.Spans {
			if sd.DurUS < 0 {
				continue
			}
			s := span{Trace: trace, ID: len(l.spans) + 1, Name: sd.Name}
			s.Start = time.Unix(0, sd.Start)
			s.End = s.Start.Add(time.Duration(sd.DurUS * 1e3))
			if sd.Parent == 0 {
				s.Parent = parent
				if !ok {
					s.Parent = 0
					s.Attrs = map[string]string{"reqtrace": td.Trace}
				}
			} else {
				s.Parent = ids[sd.Parent]
			}
			if b, isStr := sd.Attrs["batch_trace"].(string); isStr {
				s.batch = b
			}
			ids[sd.ID] = s.ID
			l.spans = append(l.spans, s)
		}
	}
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its children cover.
func (l *spanLog) selfTimes() map[int]time.Duration {
	kids := make(map[int][]*span)
	for i := range l.spans {
		s := &l.spans[i]
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(l.spans))
	for i := range l.spans {
		s := &l.spans[i]
		if s.End.IsZero() {
			continue
		}
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start.Before(ch[b].Start) })
		var covered time.Duration
		cur := s.Start
		for _, c := range ch {
			st, en := c.Start, c.End
			if en.IsZero() || en.After(s.End) {
				en = s.End
			}
			if st.Before(cur) {
				st = cur
			}
			if en.After(st) {
				covered += en.Sub(st)
				cur = en
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// spanStats is what the per-layer metrics read from a traced phase.
type spanStats struct {
	serve     []time.Duration // replica ServeCtx spans
	fleetSelf []time.Duration // Fleet.Serve self time
	queueWait []time.Duration // request reaching the server to its first tier
	linger    []time.Duration // tier.full start to forward start
	spans     int
}

func (l *spanLog) stats() spanStats {
	self := l.selfTimes()
	batchStart := make(map[string]time.Time)
	firstChild := make(map[int]time.Time)
	firstTier := make(map[int]time.Time)
	for i := range l.spans {
		s := &l.spans[i]
		if strings.HasPrefix(s.Name, "tier.") {
			if t, ok := firstTier[s.Parent]; !ok || s.Start.Before(t) {
				firstTier[s.Parent] = s.Start
			}
		}
		if h := s.Attrs["reqtrace"]; h != "" && s.Name == "batch.dispatch" {
			batchStart[h] = s.Start
		}
		if s.Parent != 0 {
			if t, ok := firstChild[s.Parent]; !ok || s.Start.Before(t) {
				firstChild[s.Parent] = s.Start
			}
		}
	}
	var st spanStats
	st.spans = len(l.spans)
	for i := range l.spans {
		s := &l.spans[i]
		if s.End.IsZero() {
			continue
		}
		switch s.Name {
		case "replica.ServeCtx":
			st.serve = append(st.serve, s.dur())
		case "fleet.Serve":
			st.fleetSelf = append(st.fleetSelf, self[s.ID])
		case "serve":
			// The program opens queue.wait only for requests that
			// queued, so the wait is read as the time from the request
			// reaching the server to its first tier span: the admission
			// queue plus validation, the cache probe and the context.
			if t, ok := firstTier[s.ID]; ok {
				st.queueWait = append(st.queueWait, t.Sub(s.Start))
			}
		case "tier.full":
			// Batched: the wait ends when the shared batch dispatches.
			// Unbatched: when the forward's first stage span opens.
			if t, ok := batchStart[s.batch]; s.batch != "" && ok {
				st.linger = append(st.linger, t.Sub(s.Start))
			} else if t, ok := firstChild[s.ID]; ok {
				st.linger = append(st.linger, t.Sub(s.Start))
			}
		}
	}
	return st
}

// write stores the spans as JSON under dir, named for the run.
func (l *spanLog) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
