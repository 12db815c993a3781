package resilience

// Trace smoke tests — the `make tracesmoke` gate. TestTraceSmoke drives a
// coalesced burst through a traced server and asserts the flight-recorder
// dump shows the whole story: cache misses with quantization keys, batch
// membership links resolving to a shared batch.dispatch trace with
// per-stage forward timings, and a cache hit on the warm repeat.
// TestTraceDisabledZeroAllocs pins the flip side: with no span in the
// context, the serve path (cache hit, SLO tracking and quality sampling
// attached) stays allocation-free.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"harpte/internal/core"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/tensor"
	"harpte/internal/verify"
)

// findTraces returns the retained traces whose root span is named root.
func findTraces(d reqtrace.Dump, root string) []reqtrace.TraceDump {
	var out []reqtrace.TraceDump
	for _, tr := range d.Traces {
		if len(tr.Spans) > 0 && tr.Spans[0].Name == root {
			out = append(out, tr)
		}
	}
	return out
}

func findSpan(tr reqtrace.TraceDump, name string) (reqtrace.SpanDump, bool) {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return reqtrace.SpanDump{}, false
}

func TestTraceSmoke(t *testing.T) {
	const burst = 4
	p := twoPathProblem()
	rec := reqtrace.NewRecorder(reqtrace.Options{Capacity: 64, SampleEvery: 1})
	srv := NewServer(core.New(tinyConfig()), Options{
		BatchMaxSize:   burst,
		BatchMaxLinger: 200 * time.Millisecond,
		CacheEntries:   8,
	})

	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, root := rec.StartTrace(context.Background(), "request")
			dec := srv.ServeCtx(ctx, p, demand(p, float64(i+1), 2))
			root.End()
			if dec.Tier != TierFull {
				t.Errorf("request %d tier %v (err %v), want full", i, dec.Tier, dec.Err)
			}
		}(i)
	}
	wg.Wait()

	// A warm repeat of the last demand must trace as a cache hit.
	ctx, root := rec.StartTrace(context.Background(), "request")
	if dec := srv.ServeCtx(ctx, p, demand(p, burst, 2)); dec.Tier != TierCached {
		t.Fatalf("warm tier %v, want cached", dec.Tier)
	}
	root.End()

	dump := rec.Snapshot()
	reqs := findTraces(dump, "request")
	if len(reqs) != burst+1 {
		t.Fatalf("retained %d request traces, want %d", len(reqs), burst+1)
	}

	// Every cold request carries the cache-miss annotation and quantization
	// key, and its tier.full span links to the batch it rode.
	var batchIDs []string
	hits := 0
	for _, tr := range reqs {
		rootSpan := tr.Spans[0]
		switch rootSpan.Attrs["cache"] {
		case "miss":
			if _, ok := rootSpan.Attrs["cache_key_topo"]; !ok {
				t.Fatalf("miss trace %s lacks cache_key_topo: %+v", tr.Trace, rootSpan.Attrs)
			}
			tsp, ok := findSpan(tr, "tier.full")
			if !ok {
				t.Fatalf("miss trace %s has no tier.full span: %+v", tr.Trace, tr.Spans)
			}
			if tsp.Parent != rootSpan.ID {
				t.Fatalf("tier.full parent %d, want root %d", tsp.Parent, rootSpan.ID)
			}
			bt, ok := tsp.Attrs["batch_trace"].(string)
			if !ok {
				t.Fatalf("miss trace %s tier.full has no batch_trace link: %+v", tr.Trace, tsp.Attrs)
			}
			batchIDs = append(batchIDs, bt)
		case "hit":
			hits++
		default:
			t.Fatalf("trace %s has no cache annotation: %+v", tr.Trace, rootSpan.Attrs)
		}
	}
	if hits != 1 {
		t.Fatalf("%d cache-hit traces, want 1", hits)
	}

	// Resolve the batch traces the members pointed at: each is a linked
	// root named batch.dispatch, annotated with its size and member links,
	// carrying the per-stage forward spans of the shared inference — and at
	// least one of them actually coalesced.
	byID := make(map[string]reqtrace.TraceDump, len(dump.Traces))
	for _, tr := range dump.Traces {
		byID[tr.Trace] = tr
	}
	sawCoalesced := false
	seen := map[string]bool{}
	for _, id := range batchIDs {
		if seen[id] {
			continue
		}
		seen[id] = true
		btr, ok := byID[id]
		if !ok {
			t.Fatalf("batch trace %s not retained; have %d traces", id, len(dump.Traces))
		}
		broot := btr.Spans[0]
		if broot.Name != "batch.dispatch" {
			t.Fatalf("batch trace %s root %q, want batch.dispatch", id, broot.Name)
		}
		if btr.Link == "" {
			t.Fatalf("batch trace %s has no link back to a member request", id)
		}
		if _, ok := broot.Attrs["member_trace"]; !ok {
			t.Fatalf("batch trace %s lacks member_trace annotation: %+v", id, broot.Attrs)
		}
		if size, _ := broot.Attrs["size"].(int64); size >= 2 {
			sawCoalesced = true
		}
		for _, stage := range []string{"forward.gnn", "forward.settrans", "forward.adjust", "forward.mlp1", "forward.rau"} {
			sp, ok := findSpan(btr, stage)
			if !ok {
				t.Fatalf("batch trace %s missing %s span: %+v", id, stage, btr.Spans)
			}
			if sp.DurUS < 0 {
				t.Fatalf("batch trace %s %s span never ended", id, stage)
			}
		}
	}
	if !sawCoalesced {
		t.Fatalf("no batch dispatch coalesced >= 2 requests (batches: %v)", batchIDs)
	}
}

// TestTraceQueueWaitSpan: a request that waits for a concurrency slot gets
// a queue.wait child spanning the wait.
func TestTraceQueueWaitSpan(t *testing.T) {
	p := twoPathProblem()
	rec := reqtrace.NewRecorder(reqtrace.Options{Capacity: 16, SampleEvery: 1})
	srv := NewServer(core.New(tinyConfig()), Options{MaxConcurrent: 1, MaxQueueDepth: 4})

	srv.sem <- struct{}{} // occupy the only slot
	done := make(chan Decision, 1)
	go func() {
		ctx, root := rec.StartTrace(context.Background(), "queued")
		dec := srv.ServeCtx(ctx, p, demand(p, 4, 2))
		root.End()
		done <- dec
	}()
	for srv.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	<-srv.sem // free the slot; the queued request proceeds
	if dec := <-done; dec.Tier != TierFull {
		t.Fatalf("queued request tier %v (err %v), want full", dec.Tier, dec.Err)
	}

	traces := findTraces(rec.Snapshot(), "queued")
	if len(traces) != 1 {
		t.Fatalf("retained %d queued traces, want 1", len(traces))
	}
	qsp, ok := findSpan(traces[0], "queue.wait")
	if !ok {
		t.Fatalf("no queue.wait span: %+v", traces[0].Spans)
	}
	if qsp.Parent != traces[0].Spans[0].ID || qsp.DurUS < 0 {
		t.Fatalf("queue.wait span malformed: %+v", qsp)
	}
}

// TestTraceShedRetainedBoringDropped pins tail-based sampling: at a
// sampling rate that would statistically retain nothing, a shed request is
// force-retained (a shed storm is exactly when the operator pulls traces)
// while an uneventful success is dropped.
func TestTraceShedRetainedBoringDropped(t *testing.T) {
	p := twoPathProblem()
	rec := reqtrace.NewRecorder(reqtrace.Options{Capacity: 16, SampleEvery: 1 << 20})
	srv := NewServer(core.New(tinyConfig()), Options{MaxConcurrent: 1})

	srv.sem <- struct{}{} // occupy the only slot: queue (depth 0) sheds
	ctx, root := rec.StartTrace(context.Background(), "shedded")
	dec := srv.ServeCtx(ctx, p, demand(p, 4, 2))
	root.End()
	if !errors.Is(dec.Err, ErrOverload) {
		t.Fatalf("expected overload shed, got %+v", dec)
	}
	<-srv.sem

	ctx, root = rec.StartTrace(context.Background(), "boring")
	if dec := srv.ServeCtx(ctx, p, demand(p, 4, 2)); dec.Tier != TierFull {
		t.Fatalf("tier %v, want full", dec.Tier)
	}
	root.End()

	dump := rec.Snapshot()
	shed := findTraces(dump, "shedded")
	if len(shed) != 1 {
		t.Fatalf("shed trace not retained (dump has %d traces)", len(dump.Traces))
	}
	if shed[0].Reason != "shed" {
		t.Fatalf("retain reason %q, want shed", shed[0].Reason)
	}
	if got := shed[0].Spans[0].Attrs["shed_reason"]; got != "queue_full" {
		t.Fatalf("shed_reason %v, want queue_full", got)
	}
	if boring := findTraces(dump, "boring"); len(boring) != 0 {
		t.Fatalf("boring trace retained (reason %q), want dropped", boring[0].Reason)
	}
	if dump.Dropped < 1 {
		t.Fatalf("dropped count %d, want >= 1", dump.Dropped)
	}
}

// TestTraceDisabledZeroAllocs is the acceptance pin: with no span in the
// context the whole serving chain — admission fast path, cache hit, SLO
// burn-rate recording, quality-probe fast path — runs without a single
// allocation.
func TestTraceDisabledZeroAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := twoPathProblem()
	q := verify.NewQualityMonitor(verify.QualityOptions{SampleEvery: 1 << 30})
	defer q.Close()
	srv := NewServer(core.New(tinyConfig()), Options{
		CacheEntries: 8,
		SLO:          NewSLOSet(SLOConfig{}),
		Quality:      q,
	})
	d := demand(p, 4, 2)
	if dec := srv.Serve(p, d); dec.Tier != TierFull {
		t.Fatalf("warmup tier %v", dec.Tier)
	}
	ctx := context.Background()
	if avg := testing.AllocsPerRun(100, func() {
		if dec := srv.ServeCtx(ctx, p, d); dec.Tier != TierCached {
			t.Fatalf("tier %v, want cached", dec.Tier)
		}
	}); avg != 0 {
		t.Fatalf("untraced cache-hit serve allocates %.1f/op, want 0", avg)
	}
}
