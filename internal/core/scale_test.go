package core

// Scale acceptance tests: float64 training steps on a UsCarrier-scale
// (158-node) problem and the single-snapshot serving deadline on a
// KDL-scale (754-node) problem, both running on the sparse kernels.

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"harpte/internal/autograd"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
	"harpte/internal/verify"
)

// kdlServingDeadline is the per-snapshot serving budget for a KDL-scale
// (754-node) topology. Generous vs observed times to stay stable on loaded
// CI machines.
const kdlServingDeadline = 500 * time.Millisecond

// kdlProblem builds a KDL-scale (754-node) problem with n random flows and
// k tunnels per flow.
func kdlProblem(n, k int, seed int64) *te.Problem {
	return scaleProblem(topology.KDLScale(seed), n, k, seed)
}

// scaleProblem picks n random flows on g and computes k tunnels each. Pair
// selection replicates the experiments harness (core cannot import
// internal/experiments — it imports core).
func scaleProblem(g *topology.Graph, n, k int, seed int64) *te.Problem {
	rng := rand.New(rand.NewSource(seed + 1))
	seen := map[[2]int]bool{}
	var pairs [][2]int
	for len(pairs) < n {
		u, v := rng.Intn(g.NumNodes), rng.Intn(g.NumNodes)
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		pairs = append(pairs, [2]int{u, v})
	}
	return te.NewProblem(g, tunnels.ComputeForPairs(g, pairs, k))
}

// TestUsCarrierScaleTraining is the training half of the scale acceptance:
// float64 training steps on a synthetic UsCarrier-scale (158-node) problem
// must run on the sparse kernels without tripping the numerical health
// guard.
func TestUsCarrierScaleTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("UsCarrier-scale training steps are seconds of work; skipped with -short")
	}
	if tensor.RaceEnabled {
		t.Skip("UsCarrier-scale training is too slow under race instrumentation")
	}
	p := scaleProblem(topology.UsCarrierScale(301), 40, 4, 301)
	m := New(DefaultConfig())
	ctx := m.Context(p)
	rng := rand.New(rand.NewSource(303))
	samples := make([]Sample, 2)
	for i := range samples {
		d := tensor.New(p.NumFlows(), 1)
		for j := range d.Data {
			d.Data[j] = 1 + 50*rng.Float64()
		}
		samples[i] = Sample{Ctx: ctx, Demand: d}
	}
	opt := autograd.NewAdam(2e-3)
	for step := 0; step < 2; step++ {
		loss, skipped := m.TrainStepChecked(opt, samples)
		if skipped {
			t.Fatalf("step %d: health guard tripped at UsCarrier scale", step)
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("step %d: loss %v", step, loss)
		}
	}
}

// TestKDLScaleServingDeadline is the acceptance test for the sparse
// serving path: a single split-ratio inference on a KDL-scale topology
// must finish inside the serving deadline and return a valid routing.
func TestKDLScaleServingDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("KDL-scale inference is seconds of work; skipped with -short")
	}
	if tensor.RaceEnabled {
		t.Skip("timing bound does not hold under race instrumentation")
	}
	p := kdlProblem(60, 4, 401)
	m := New(DefaultConfig())
	ctx := m.Context(p)
	rng := rand.New(rand.NewSource(402))
	d := tensor.New(p.NumFlows(), 1)
	for i := range d.Data {
		d.Data[i] = 1 + 50*rng.Float64()
	}
	m.Splits(ctx, d) // warm: pooled tape arena and scratch

	best := time.Duration(math.MaxInt64)
	var got *tensor.Dense
	for i := 0; i < 3; i++ {
		start := time.Now()
		got = m.Splits(ctx, d)
		if el := time.Since(start); el < best {
			best = el
		}
	}
	if best > kdlServingDeadline {
		t.Errorf("KDL-scale inference took %v, deadline %v", best, kdlServingDeadline)
	}
	if err := verify.CheckRouting(p, got, d); err != nil {
		t.Errorf("KDL-scale splits are not a valid routing: %v", err)
	}
	t.Logf("KDL-scale: %d nodes, %d flows, inference %v (deadline %v), MLU %.4f",
		p.Graph.NumNodes, p.NumFlows(), best, kdlServingDeadline, p.MLU(got, d))
}
