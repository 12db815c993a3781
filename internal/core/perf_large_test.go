package core

// Large-topology serving benchmarks — the BENCH_3.json ledger rows:
// single-snapshot float64 inference on UsCarrier (158 nodes, the
// topology-zoo scale HARP trains on) and KDL (754 nodes, the paper's
// largest transfer target).

import (
	"math/rand"
	"testing"

	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
)

// largeBench builds a model and demand on a scale topology. The model is
// untrained (benchmarks measure the forward pass, not answer quality).
func largeBench(p *te.Problem, seed int64) (*Model, *Context, *tensor.Dense) {
	m := New(DefaultConfig())
	ctx := m.Context(p)
	rng := rand.New(rand.NewSource(seed))
	d := tensor.New(p.NumFlows(), 1)
	for i := range d.Data {
		d.Data[i] = 1 + 50*rng.Float64()
	}
	return m, ctx, d
}

func benchSplits64(b *testing.B, p *te.Problem, seed int64) {
	m, ctx, d := largeBench(p, seed)
	m.Splits(ctx, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Splits(ctx, d)
	}
}

func usCarrierProblem(n, k int, seed int64) *te.Problem {
	return scaleProblem(topology.UsCarrierScale(seed), n, k, seed)
}

func BenchmarkSplitsUsCarrier64(b *testing.B) { benchSplits64(b, usCarrierProblem(60, 4, 301), 302) }
func BenchmarkSplitsKDL64(b *testing.B)       { benchSplits64(b, kdlProblem(60, 4, 301), 302) }
