package verify_test

// KDL-scale oracles for the sparse path: the PR-4 equivariance claims and
// the autograd-vs-finite-difference check rerun on a 754-node topology,
// where the CSR kernels (GCN aggregation, incidence products) carry the
// whole forward pass.

import (
	"math/rand"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/experiments"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
	"harpte/internal/verify"
)

func kdlInstance(t *testing.T, flows int, seed int64) (*topology.Graph, *tunnels.Set, *te.Problem, *tensor.Dense) {
	t.Helper()
	g := topology.KDLScale(seed)
	pairs := experiments.RandomPairs(g, flows, seed+1)
	set := tunnels.ComputeForPairs(g, pairs, 4)
	p := te.NewProblem(g, set)
	rng := rand.New(rand.NewSource(seed + 2))
	d := tensor.New(p.NumFlows(), 1)
	for j := range d.Data {
		d.Data[j] = 1 + 20*rng.Float64()
	}
	return g, set, p, d
}

// TestKDLScaleSparseGradOracle reruns the autograd-vs-finite-difference
// oracle over the sparse kernels on KDL-scale operands: the real 754-node
// incidence matrix (CSRMul forward / CSRMulT adjoint round trip) and a
// normalized-adjacency-shaped CSR over the full node set.
func TestKDLScaleSparseGradOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("KDL-scale finite differences are seconds of work; skipped with -short")
	}
	if tensor.RaceEnabled {
		t.Skip("KDL-scale finite differences are too slow under race instrumentation")
	}
	g, _, p, _ := kdlInstance(t, 40, 501)
	rng := rand.New(rand.NewSource(502))

	inc := p.Incidence() // E×T
	x := autograd.NewParam(tensor.New(inc.Cols, 1))
	for i := range x.Val.Data {
		x.Val.Data[i] = rng.NormFloat64()
	}
	rel := verify.GradientMaxRelError([]*autograd.Tensor{x}, func(tp *autograd.Tape) *autograd.Tensor {
		loads := tp.CSRMul(inc, x)     // E×1 edge loads
		back := tp.CSRMulT(inc, loads) // T×1 per-tunnel bottleneck sums
		return tp.SumAll(tp.Mul(back, back))
	}, 1e-5)
	if rel > 1e-6 {
		t.Errorf("incidence CSRMul/CSRMulT gradient rel error %g on KDL scale, want <= 1e-6", rel)
	}

	// Self-loops plus both edge directions, degree-normalized — the shape the
	// GCN aggregation consumes, with duplicate (row,col) pairs from parallel
	// edges exercising CSR normalization at scale.
	var coo []tensor.COO
	for i := 0; i < g.NumNodes; i++ {
		coo = append(coo, tensor.E(i, i, 1))
	}
	for _, e := range g.Edges {
		coo = append(coo, tensor.E(e.Src, e.Dst, 0.5), tensor.E(e.Dst, e.Src, 0.5))
	}
	adj := tensor.NewCSR(g.NumNodes, g.NumNodes, coo)
	if err := adj.Validate(); err != nil {
		t.Fatalf("KDL adjacency CSR invalid after normalization: %v", err)
	}
	h := autograd.NewParam(tensor.New(g.NumNodes, 2))
	for i := range h.Val.Data {
		h.Val.Data[i] = rng.NormFloat64()
	}
	rel = verify.GradientMaxRelError([]*autograd.Tensor{h}, func(tp *autograd.Tape) *autograd.Tensor {
		y := tp.CSRMul(adj, h)
		return tp.SumAll(tp.Mul(y, y))
	}, 1e-5)
	if rel > 1e-6 {
		t.Errorf("adjacency CSRMul gradient rel error %g on KDL scale, want <= 1e-6", rel)
	}
}

// TestKDLScaleEquivarianceOracle reruns the PR-4 equivariance oracles —
// node-permutation equivariance and tunnel-edge-order invariance — on a
// KDL-scale problem, where the forward pass runs entirely on the sparse
// kernels.
func TestKDLScaleEquivarianceOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("KDL-scale forward passes are seconds of work; skipped with -short")
	}
	if tensor.RaceEnabled {
		t.Skip("KDL-scale forward passes are too slow under race instrumentation")
	}
	m := oracleModel()
	g, set, p, d := kdlInstance(t, 30, 601)
	base := m.Splits(m.Context(p), d)

	rng := rand.New(rand.NewSource(602))
	perm := rng.Perm(g.NumNodes)
	g2 := g.Permute(perm)
	set2 := &tunnels.Set{K: set.K, PerFlow: set.PerFlow}
	for _, f := range set.Flows {
		set2.Flows = append(set2.Flows, tunnels.Flow{Src: perm[f.Src], Dst: perm[f.Dst]})
	}
	p2 := te.NewProblem(g2, set2)
	if got := m.Splits(m.Context(p2), d); !tensor.Equal(base, got, 1e-7) {
		t.Error("KDL-scale splits changed under node permutation")
	}

	shuf := shuffleTunnelEdges(set, rng)
	if got := m.Splits(m.Context(te.NewProblem(g, shuf)), d); !tensor.Equal(base, got, 1e-7) {
		t.Error("KDL-scale splits changed under tunnel-edge-order shuffle")
	}
}
