package main

// Input generators. Graphs, damage states and demands are drawn from the
// workload seed with the topology, tunnels and traffic packages; lp only
// sets a traffic scale, and resilience.CacheKey only checks that demands
// are distinct. The program under test receives nothing but the
// generated graphs, tunnel sets and demands.

import (
	"fmt"
	"math"
	"math/rand"

	"harpte/internal/lp"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

const (
	// tunnelsPerFlow is K for every workload.
	tunnelsPerFlow = 4
	// kdlGraphSeed fixes the KDL-scale graph (754 nodes).
	kdlGraphSeed = 1
	// churnFlows is the kdl-churn flow count; fleetKDLFlows the KDL flow
	// count of the mixed fleet.
	churnFlows    = 200
	fleetKDLFlows = 60
	// The KDL flows are drawn from fixed seeds, not the workload seed: the
	// forward's cost grows with the tunnels' total length, so per-seed
	// flows would move every timing with the seed. Fixed mixed-fleet
	// flows also keep the topology fingerprints, and with them the shard
	// owners, the same on every run. The workload seed varies traffic and
	// damage.
	churnPairSeed    = 5
	fleetKDLPairSeed = 7
)

// splitSeed derives an independent stream seed from the workload seed, so
// each generator (pairs, traffic, damage, request i) draws from its own
// stream and adding draws to one does not shift the others.
func splitSeed(seed int64, stream, index int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + uint64(index)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return int64(x & (1<<62 - 1))
}

// randomPairs returns n distinct ordered node pairs of g.
func randomPairs(g *topology.Graph, n int, rng *rand.Rand) [][2]int {
	seen := make(map[[2]int]bool, n)
	out := make([][2]int, 0, n)
	for len(out) < n {
		u, v := rng.Intn(g.NumNodes), rng.Intn(g.NumNodes)
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		out = append(out, [2]int{u, v})
	}
	return out
}

// seriesDemands returns n diurnal gravity demand vectors on p from
// traffic.Series, each scaled by scale.
func seriesDemands(p *te.Problem, n int, seed int64, scale float64) []*tensor.Dense {
	tms := traffic.Series(p.Graph, n, traffic.DefaultSeriesConfig(1), seed)
	out := make([]*tensor.Dense, n)
	for i, tm := range tms {
		d := traffic.DemandVector(tm, p.Tunnels.Flows)
		scaleInPlace(d, scale)
		out[i] = d
	}
	return out
}

// gravityDemand draws one gravity demand vector over the flows of set:
// fresh lognormal node masses from traffic.GravityWeights, times per-flow
// lognormal noise. Only the flows' entries are built, so a 754-node graph
// costs O(flows), not O(nodes²).
func gravityDemand(g *topology.Graph, set *tunnels.Set, rng *rand.Rand) *tensor.Dense {
	w := traffic.GravityWeights(g, rng)
	d := tensor.New(len(set.Flows), 1)
	for f, fl := range set.Flows {
		d.Data[f] = (w[fl.Src] + 0.05) * (w[fl.Dst] + 0.05) * math.Exp(0.3*rng.NormFloat64())
	}
	return d
}

func scaleInPlace(d *tensor.Dense, s float64) {
	for i := range d.Data {
		d.Data[i] *= s
	}
}

// optScale returns the factor that puts the optimal MLU of demand d on p
// at target, solving the LP once.
func optScale(p *te.Problem, d *tensor.Dense, target float64) (float64, error) {
	r := lp.Solve(p, d)
	if !(r.MLU > 0) || math.IsInf(r.MLU, 0) {
		return 0, fmt.Errorf("optimal MLU %v on %s", r.MLU, p.Graph.Name)
	}
	return target / r.MLU, nil
}

// sharedLinks lists, per flow, the links every one of its tunnels
// crosses. Traffic on them is fixed whatever the splits, so their load is
// a lower bound on the optimal MLU. On the KDL-scale graph (average
// degree 2.4, many bridges) that bound is nearly tight, which is what
// lets kdl-churn scale every request into a loaded band without an LP
// solve per request.
func sharedLinks(set *tunnels.Set) [][]int {
	out := make([][]int, len(set.PerFlow))
	for f, paths := range set.PerFlow {
		count := map[int]int{}
		for _, t := range paths {
			seen := map[int]bool{}
			for _, e := range t.Edges {
				if !seen[e] {
					seen[e] = true
					count[e]++
				}
			}
		}
		for e, c := range count {
			if c == len(paths) {
				out[f] = append(out[f], e)
			}
		}
	}
	return out
}

// sharedLoadBound is the largest utilization the shared links of every
// flow must carry under demand d on graph g.
func sharedLoadBound(g *topology.Graph, shared [][]int, d *tensor.Dense) float64 {
	load := make([]float64, g.NumEdges())
	for f, links := range shared {
		for _, e := range links {
			load[e] += d.Data[f]
		}
	}
	var mx float64
	for e, l := range load {
		if u := l / g.Edges[e].Capacity; u > mx {
			mx = u
		}
	}
	return mx
}

// stranded reports whether some flow of set has no live tunnel on g.
func stranded(g *topology.Graph, set *tunnels.Set) bool {
	for _, paths := range set.PerFlow {
		alive := false
		for _, t := range paths {
			if te.TunnelAlive(g, t) {
				alive = true
				break
			}
		}
		if !alive {
			return true
		}
	}
	return false
}

// damage returns one damaged copy of base: with even odds an SRLG conduit
// cut (RandomSRLGs + FailSRLG) or a 50–90% capacity loss on three random
// links, as in the paper's Figure 8. States that strand a flow (every
// tunnel crosses a cut link) are redrawn, so every request stays
// routable.
func damage(base *topology.Graph, set *tunnels.Set, links [][2]int, rng *rand.Rand) (*topology.Graph, error) {
	for attempt := 0; attempt < 64; attempt++ {
		g := base
		if rng.Intn(2) == 0 {
			groups := base.RandomSRLGs(1, 3, rng)
			if len(groups) == 0 {
				continue
			}
			cut, err := base.FailSRLG(groups[0])
			if err != nil {
				continue
			}
			g = cut
		} else {
			for i := 0; i < 3; i++ {
				l := links[rng.Intn(len(links))]
				g = g.WithPartialFailure(l[0], l[1], 0.1+0.4*rng.Float64())
			}
		}
		if !stranded(g, set) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("no routable damage state in 64 draws")
}

// distinctKeys asserts that no two demands on p share the traffic half of
// a split-cache key (so no two share a key on any one topology), so every
// cached answer has exactly one reference input.
func distinctKeys(p *te.Problem, demands []*tensor.Dense) error {
	seen := make(map[uint64]int, len(demands))
	for i, d := range demands {
		_, tm := resilience.CacheKey(p, d, 0)
		if j, dup := seen[tm]; dup {
			return fmt.Errorf("%s demands %d and %d share cache key %x", p.Graph.Name, j, i, tm)
		}
		seen[tm] = i
	}
	return nil
}
