package core

// Tests for the batched inference path: recycled scratch may never leak
// state between batches, and the steady-state allocation count must stay
// bounded by the B output clones plus a small constant — the PR-2 arena
// discipline extended to the batched path. Bit-identity with Forward is
// pinned for every serving path by TestEngineOracle (internal/verify).

import (
	"context"
	"testing"

	"harpte/internal/obs/reqtrace"
	"harpte/internal/tensor"
)

// TestSplitsBatchReusedAcrossBatches: the pooled batch tape must keep
// producing identical answers across batches (recycled buffers may never
// leak state between batches or snapshots).
func TestSplitsBatchReusedAcrossBatches(t *testing.T) {
	m, ctx, samples := abileneBench(4)
	demands := make([]*tensor.Dense, len(samples))
	for i, s := range samples {
		demands[i] = s.Demand
	}
	first := m.SplitsBatch(nil, ctx, demands)
	for pass := 0; pass < 3; pass++ {
		again := m.SplitsBatch(nil, ctx, demands)
		for i := range first {
			for j := range first[i].Data {
				if first[i].Data[j] != again[i].Data[j] {
					t.Fatalf("pass %d snapshot %d entry %d: %v != %v",
						pass, i, j, again[i].Data[j], first[i].Data[j])
				}
			}
		}
	}
}

// TestSplitsBatchAllocsBounded pins the steady-state allocation count of a
// 16-snapshot batch: the B result clones (one Dense header + one data
// slice each) plus a small constant for the shared embedding pass,
// independent of topology size — far below B times the single-call Splits
// budget (64, TestInferenceAllocsBounded).
func TestSplitsBatchAllocsBounded(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	const batch = 16
	m, ctx, samples := abileneBench(batch)
	demands := make([]*tensor.Dense, len(samples))
	for i, s := range samples {
		demands[i] = s.Demand
	}
	dst := make([]*tensor.Dense, 0, batch)
	run := func() { _ = m.SplitsBatch(dst[:0], ctx, demands) }
	run() // populate the pooled tape's arena
	run()
	if n := testing.AllocsPerRun(5, run); n > 4*batch+64 {
		t.Errorf("steady-state SplitsBatch(%d) allocates %v times per run, want <= %d",
			batch, n, 4*batch+64)
	}
}

// TestInferenceStageSpans: Splits and SplitsBatch emit one stage
// vocabulary — forward.gnn and forward.settrans under the caller's span,
// then forward.adjust (annotated with the demand count) holding one
// forward.mlp1 and one forward.rau per demand.
func TestInferenceStageSpans(t *testing.T) {
	m, ctx, samples := abileneBench(3)
	demands := []*tensor.Dense{samples[0].Demand, samples[1].Demand, samples[2].Demand}
	parentOf := map[string]string{
		"forward.gnn": "probe", "forward.settrans": "probe", "forward.adjust": "probe",
		"forward.mlp1": "forward.adjust", "forward.rau": "forward.adjust",
	}
	for _, tc := range []struct {
		name string
		run  func(sp *reqtrace.Span)
		n    int
	}{
		{"SplitsSpan", func(sp *reqtrace.Span) { m.SplitsSpan(sp, ctx, demands[0]) }, 1},
		{"SplitsBatchSpan", func(sp *reqtrace.Span) { m.SplitsBatchSpan(nil, ctx, demands, sp) }, 3},
	} {
		rec := reqtrace.NewRecorder(reqtrace.Options{SampleEvery: 1})
		_, root := rec.StartTrace(context.Background(), "probe")
		tc.run(root)
		root.End()
		spans := rec.Snapshot().Traces[0].Spans
		byID := map[uint64]reqtrace.SpanDump{}
		count := map[string]int{}
		for _, s := range spans {
			byID[s.ID] = s
			count[s.Name]++
		}
		for _, s := range spans[1:] { // spans[0] is the root
			if want := parentOf[s.Name]; want == "" || byID[s.Parent].Name != want {
				t.Errorf("%s: span %q under %q, want under %q", tc.name, s.Name, byID[s.Parent].Name, parentOf[s.Name])
			}
			if s.Name == "forward.adjust" && s.Attrs["demands"] != int64(tc.n) {
				t.Errorf("%s: forward.adjust demands=%v, want %d", tc.name, s.Attrs["demands"], tc.n)
			}
		}
		for name, n := range map[string]int{"forward.gnn": 1, "forward.settrans": 1, "forward.adjust": 1, "forward.mlp1": tc.n, "forward.rau": tc.n} {
			if count[name] != n {
				t.Errorf("%s: %d %s spans, want %d", tc.name, count[name], name, n)
			}
		}
	}
}
