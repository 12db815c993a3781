package verify_test

// The engine oracle: every path that serves split ratios — Splits, the
// batched engine at several batch sizes, the reduced-RAU serving tier and
// a split-cache hit — must reproduce Forward, the differentiable training
// forward, bit for bit. It runs on tie-rich topologies (KDL-scale graphs,
// equal-capacity chains and rings, an SRLG-damaged Abilene) where an
// engine that broke RAU bottleneck ties differently from the tape would
// diverge, not only on Abilene and GEANT.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/core"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// engineKDLProblem builds a KDL-scale (754-node) problem with n random
// flows and k tunnels each, picking pairs exactly as the core package's
// scale tests do, so the rows here are the same problems as theirs.
func engineKDLProblem(n, k int, seed int64) *te.Problem {
	g := topology.KDLScale(seed)
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

// equalCapacityProblem builds an n-node chain (ring closes it) with every
// link at the same capacity and traffic only between node 0 and the node
// opposite it. Every edge of a tunnel then carries the same flows at the
// same utilization, so every RAU bottleneck choice is a tie. A spur node
// hung off node 1 carries no traffic but breaks the mirror symmetry, so
// the tied edges have different embeddings and a different tie-break
// changes the answer.
func equalCapacityProblem(n int, ring bool) *te.Problem {
	name, far := "equal-chain", n-1
	if ring {
		name, far = "equal-ring", n/2
	}
	g := topology.New(fmt.Sprintf("%s-%d", name, n), n+1)
	for i := 0; i+1 < n; i++ {
		g.AddBidirectional(i, i+1, 10)
	}
	if ring {
		g.AddBidirectional(n-1, 0, 10)
	}
	g.AddBidirectional(1, n, 10) // the spur
	g.EdgeNodes = []int{0, far}
	return te.NewProblem(g, tunnels.Compute(g, 2))
}

// srlgAbilene fails a two-link shared-risk group on Abilene; tunnels stay
// those of the intact graph, as after a real correlated cut.
func srlgAbilene(t *testing.T) *te.Problem {
	g := topology.Abilene()
	links := g.UndirectedLinks()
	damaged, err := g.FailSRLG(topology.SRLG{Name: "conduit", Links: [][2]int{links[0], links[3]}})
	var de *topology.DisconnectionError
	if err != nil && !errors.As(err, &de) {
		t.Fatal(err)
	}
	return te.NewProblem(damaged, tunnels.Compute(g, 4))
}

// engineDemands returns 16 demand vectors: one uniform (maximally
// tie-prone) and 15 random.
func engineDemands(p *te.Problem, seed int64) []*tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Dense, 16)
	for i := range out {
		d := tensor.New(p.NumFlows(), 1)
		for j := range d.Data {
			d.Data[j] = 1
			if i > 0 {
				d.Data[j] = 0.1 + 20*rng.Float64()
			}
		}
		out[i] = d
	}
	return out
}

// diffEntries counts the entries where got and want differ bit-wise and
// returns the largest absolute difference.
func diffEntries(got, want *tensor.Dense) (int, float64) {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return len(want.Data), math.Inf(1)
	}
	n, worst := 0, 0.0
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			n++
			worst = math.Max(worst, math.Abs(got.Data[i]-want.Data[i]))
		}
	}
	return n, worst
}

// TestEngineOracle pins every serving path bit-for-bit to Forward on a
// fresh tape, across topologies × model configurations.
func TestEngineOracle(t *testing.T) {
	type topo struct {
		name  string
		build func(t *testing.T) *te.Problem
		slow  bool // seconds of work: skipped under -short and -race
	}
	topos := []topo{
		{"abilene", func(*testing.T) *te.Problem { g := topology.Abilene(); return te.NewProblem(g, tunnels.Compute(g, 4)) }, false},
		{"geant", func(*testing.T) *te.Problem { g := topology.Geant(); return te.NewProblem(g, tunnels.Compute(g, 4)) }, true},
		{"chain", func(*testing.T) *te.Problem { return equalCapacityProblem(6, false) }, false},
		{"ring", func(*testing.T) *te.Problem { return equalCapacityProblem(8, true) }, false},
		{"abilene-srlg", srlgAbilene, false},
	}
	for seed := int64(301); seed <= 304; seed++ {
		topos = append(topos, topo{fmt.Sprintf("kdl60-%d", seed), func(*testing.T) *te.Problem { return engineKDLProblem(60, 4, seed) }, true})
	}
	meanPool := core.DefaultConfig()
	meanPool.MeanPoolTunnels = true
	noRAU := core.DefaultConfig()
	noRAU.RAUIterations = 0
	configs := []struct {
		name string
		cfg  core.Config
	}{{"default", core.DefaultConfig()}, {"meanpool", meanPool}, {"norau", noRAU}}

	for ti, tc := range topos {
		if tc.slow && (testing.Short() || tensor.RaceEnabled) {
			continue
		}
		p := tc.build(t)
		demands := engineDemands(p, int64(700+ti))
		for _, cc := range configs {
			t.Run(tc.name+"/"+cc.name, func(t *testing.T) {
				checkEngine(t, core.New(cc.cfg), p, demands)
			})
		}
	}
}

// checkEngine runs every serving path of m on (p, demands) and compares
// each answer with Forward on a fresh tape.
func checkEngine(t *testing.T, m *core.Model, p *te.Problem, demands []*tensor.Dense) {
	t.Helper()
	ctx := m.Context(p)
	reference := func(model *core.Model, d *tensor.Dense) *tensor.Dense {
		return model.Forward(autograd.NewTape(), ctx, d).Splits.Val
	}
	want := make([]*tensor.Dense, len(demands))
	for i, d := range demands {
		want[i] = reference(m, d)
	}
	check := func(path string, i int, got *tensor.Dense) {
		t.Helper()
		if n, worst := diffEntries(got, want[i]); n > 0 {
			t.Errorf("%s, demand %d: %d of %d entries differ from Forward (max |diff| %g)",
				path, i, n, len(want[i].Data), worst)
		}
	}

	for i := 0; i < 3; i++ {
		check("Splits", i, m.Splits(ctx, demands[i]))
	}
	for _, b := range []int{1, 3, 16} {
		for i, got := range m.SplitsBatch(nil, ctx, demands[:b]) {
			check(fmt.Sprintf("SplitsBatch(B=%d)", b), i, got)
		}
	}

	reduced := m.WithRAUIterations(2)
	if n, worst := diffEntries(reduced.Splits(ctx, demands[1]), reference(reduced, demands[1])); n > 0 {
		t.Errorf("WithRAUIterations(2).Splits: %d entries differ from its Forward (max |diff| %g)", n, worst)
	}

	srv := resilience.NewServer(m, resilience.Options{CacheEntries: 4})
	if dec := srv.Serve(p, demands[2]); dec.Tier != resilience.TierFull {
		t.Fatalf("cold Serve answered from tier %v, want full", dec.Tier)
	}
	dec := srv.Serve(p, demands[2])
	if dec.Tier != resilience.TierCached {
		t.Fatalf("repeated Serve answered from tier %v, want cached", dec.Tier)
	}
	check("cache-hit Serve", 2, dec.Splits)
}
