package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"harpte/internal/core"
	"harpte/internal/fleet"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"abilene-steady", "kdl-churn", "mixed-fleet", "abilene-train"}

// Server settings shared by every serving workload: admission gate,
// breakers and split cache on, and a deadline far above any request's
// cost so it never fires in steady state.
const (
	serveDeadline   = 5 * time.Second
	maxConcurrent   = 2
	maxQueueDepth   = 16
	breakerTrips    = 5
	cacheEntries    = 256
	reducedRAUIters = 2
	batchMaxSize    = 8
	// loadedMLU is the optimal MLU the traffic is scaled to.
	loadedMLU = 0.6
)

func serverOptions() resilience.Options {
	return resilience.Options{
		ReducedRAUIterations: reducedRAUIters,
		Deadline:             serveDeadline,
		MaxConcurrent:        maxConcurrent,
		MaxQueueDepth:        maxQueueDepth,
		BreakerThreshold:     breakerTrips,
		CacheEntries:         cacheEntries,
	}
}

// stack is the program-side state one set-up builds: everything a
// controller constructs before it can answer its first request.
type stack struct {
	model    *core.Model
	problems []*te.Problem // per topology index
	set      *tunnels.Set  // kdl-churn: the base tunnel set
	servers  []*resilience.Server
	opts     resilience.Options // every server's options
	fleet    *fleet.Fleet
	fo       fleetOutcome
	do       func(ctx context.Context, r *request) answer
	tunnels  time.Duration
}

// close drains the servers and stops the fleet's background work.
func (s *stack) close() {
	if s.fleet != nil {
		s.fleet.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		_ = srv.Drain(ctx) // a drain that times out leaves goroutines, which goroutines_leaked reports
	}
}

// loadModel reads and decodes the committed serving model.
func loadModel(path string) (*core.Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := core.Load(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return m, nil
}

// computeTunnels builds a tunnel set and reports how long it took.
func computeTunnels(st *stack, g *topology.Graph, pairs [][2]int) *tunnels.Set {
	t0 := time.Now()
	var set *tunnels.Set
	if pairs == nil {
		set = tunnels.Compute(g, tunnelsPerFlow)
	} else {
		set = tunnels.ComputeForPairs(g, pairs, tunnelsPerFlow)
	}
	st.tunnels += time.Since(t0)
	return set
}

// serveOn calls ServeCtx on one server inside a replica.ServeCtx span; in
// a traced phase the program's reqtrace spans nest under it.
func serveOn(ctx context.Context, srv *resilience.Server, p *te.Problem, d *tensor.Dense) resilience.Decision {
	ctx, end := startSpan(ctx, "replica.ServeCtx")
	defer end()
	pctx, endProgram := programTrace(ctx)
	defer endProgram()
	return srv.ServeCtx(pctx, p, d)
}

// timedReplica wraps fleet.Local so every replica call is seen by the
// benchmark: it records which replica the fleet tried first and opens a
// replica.ServeCtx span, from which fleet self time is derived.
type timedReplica struct {
	fleet.Local
	id int32
}

type firstKey struct{}

// Serve implements fleet.Replica.
func (t *timedReplica) Serve(p *te.Problem, d *tensor.Dense) (resilience.Decision, error) {
	return t.ServeCtx(context.Background(), p, d)
}

// ServeCtx implements fleet.ContextReplica.
func (t *timedReplica) ServeCtx(ctx context.Context, p *te.Problem, d *tensor.Dense) (resilience.Decision, error) {
	if first, ok := ctx.Value(firstKey{}).(*atomic.Int32); ok {
		first.CompareAndSwap(-1, t.id)
	}
	return serveOn(ctx, t.S, p, d), nil
}

// fleetOutcome counts answers by the replica the fleet tried first (the
// topology's shard owner while the fleet is healthy).
type fleetOutcome struct {
	home, byReplica atomic.Int64
}

// serveFleet sends one request through Fleet.ServeCtx.
func serveFleet(ctx context.Context, f *fleet.Fleet, fo *fleetOutcome, p *te.Problem, d *tensor.Dense) answer {
	first := new(atomic.Int32)
	first.Store(-1)
	ctx = context.WithValue(ctx, firstKey{}, first)
	ctx, end := startSpan(ctx, "fleet.Serve")
	dec := f.ServeCtx(ctx, p, d)
	end()
	if dec.Replica >= 0 {
		fo.byReplica.Add(1)
		if int32(dec.Replica) == first.Load() {
			fo.home.Add(1)
		}
	}
	return tierAnswer(p, dec.Decision)
}

// newFleet puts servers behind a sharded fleet with hedging at the
// command-line default quantile.
func newFleet(servers []*resilience.Server) *fleet.Fleet {
	reps := make([]fleet.Replica, len(servers))
	for i, s := range servers {
		reps[i] = &timedReplica{Local: fleet.Local{S: s}, id: int32(i)}
	}
	return fleet.New(reps, fleet.Options{ShardByTopology: true, HedgeQuantile: 0.95})
}

// ---------------------------------------------------------------------
// abilene-steady

type abileneInputs struct {
	pool  []*tensor.Dense // the served stream, distinct under CacheKey
	warm  []*tensor.Dense
	extra []*tensor.Dense // probe and fine-tune inputs, never served
	scale float64         // puts the first pool TM's optimal MLU at loadedMLU
	p     *te.Problem     // the problem the inputs were generated on
}

// abileneSeries is how many diurnal series the served pool interleaves,
// each from its own seed and so its own gravity base. How close the model
// comes to the optimum depends on the base: over five seeds with one
// series each, norm_mlu_p50 read 1.00 on three and 1.06 and 1.09 on the
// others. A run that serves and scores several bases reads their mix.
// It is odd so that every series falls in the scored sample, which takes
// every 4th request.
const abileneSeries = 7

// abileneProblem builds Abilene with all 132 pairs and K=4.
func abileneProblem(st *stack) *te.Problem {
	g := topology.Abilene()
	return te.NewProblem(g, computeTunnels(st, g, nil))
}

func newAbileneInputs(seed int64, n int) (*abileneInputs, error) {
	p := abileneProblem(&stack{})
	first := seriesDemands(p, 1, splitSeed(seed, 1, 0), 1)[0]
	scale, err := optScale(p, first, loadedMLU)
	if err != nil {
		return nil, err
	}
	in := &abileneInputs{scale: scale, p: p}
	per := (n + abileneSeries - 1) / abileneSeries
	series := [][]*tensor.Dense{seriesDemands(p, per, splitSeed(seed, 1, 0), scale)}
	for k := int64(1); k < abileneSeries; k++ {
		// Each series is scaled on its own first TM, so all sit in the
		// same loaded band.
		first := seriesDemands(p, 1, splitSeed(seed, 1, k), 1)[0]
		s, err := optScale(p, first, loadedMLU)
		if err != nil {
			return nil, err
		}
		series = append(series, seriesDemands(p, per, splitSeed(seed, 1, k), s))
	}
	in.pool = make([]*tensor.Dense, n)
	for i := range in.pool {
		in.pool[i] = series[i%abileneSeries][i/abileneSeries]
	}
	in.warm = seriesDemands(p, 3, splitSeed(seed, 2, 0), scale)
	in.extra = seriesDemands(p, 16, splitSeed(seed, 3, 0), scale)
	if err := distinctKeys(p, append(append(append([]*tensor.Dense{}, in.pool...), in.warm...), in.extra...)); err != nil {
		return nil, err
	}
	return in, nil
}

// setupAbilene builds the abilene-steady stack: the model from load, one
// server, no batching.
func setupAbilene(load func() (*core.Model, error), in *abileneInputs) (*stack, error) {
	st := &stack{}
	m, err := load()
	if err != nil {
		return nil, err
	}
	st.model = m
	p := abileneProblem(st)
	st.problems = []*te.Problem{p}
	st.opts = serverOptions()
	srv := resilience.NewServer(m, st.opts)
	st.servers = []*resilience.Server{srv}
	st.do = func(ctx context.Context, r *request) answer {
		return tierAnswer(p, serveOn(ctx, srv, p, r.d))
	}
	for _, d := range in.warm {
		if dec := srv.Serve(p, d); dec.Err != nil {
			return nil, fmt.Errorf("warm-up: %w", dec.Err)
		}
	}
	return st, nil
}

func (in *abileneInputs) gen(i int) (*request, error) {
	if i >= len(in.pool) {
		return nil, fmt.Errorf("abilene pool of %d demands exhausted; the pool is sized for 300 req/s", len(in.pool))
	}
	return &request{idx: i, d: in.pool[i]}, nil
}

// ---------------------------------------------------------------------
// kdl-churn

type churnInputs struct {
	seed   int64
	base   *topology.Graph
	set    *tunnels.Set // the flows' tunnels on the base graph
	links  [][2]int
	shared [][]int
	pool   []*request
	warm   *request
}

// The kdl-churn input streams: served requests, the set-up's warm-up
// request, and inputs never served (probes and fine-tune).
const (
	churnServeStream = 11
	churnWarmStream  = 12
	churnExtraStream = 13
)

func kdlBase() *topology.Graph { return topology.KDLScale(kdlGraphSeed) }

func churnPairs() [][2]int {
	return randomPairs(kdlBase(), churnFlows, rand.New(rand.NewSource(churnPairSeed)))
}

// setupChurn builds the kdl-churn stack: the base graph, K=4 tunnels for
// the 200 flows (computed once), one server, and a warm-up request on a
// damaged state.
func setupChurn(modelPath string, pairs [][2]int, warm *request) (*stack, error) {
	st := &stack{}
	m, err := loadModel(modelPath)
	if err != nil {
		return nil, err
	}
	st.model = m
	g := kdlBase()
	st.set = computeTunnels(st, g, pairs)
	st.problems = []*te.Problem{te.NewProblem(g, st.set)}
	st.opts = serverOptions()
	srv := resilience.NewServer(m, st.opts)
	st.servers = []*resilience.Server{srv}
	set := st.set
	st.do = func(ctx context.Context, r *request) answer {
		pctx, end := startSpan(ctx, "te.NewProblem")
		p := te.NewProblem(r.g, set)
		end()
		return tierAnswer(p, serveOn(pctx, srv, p, r.d))
	}
	if a := st.do(context.Background(), warm); a.err != nil {
		return nil, fmt.Errorf("warm-up: %w", a.err)
	}
	return st, nil
}

// newChurnInputs generates the kdl-churn inputs before any set-up: the
// first n requests (whose demands it asserts distinct under the
// split-cache key) and the warm-up request. It computes the flows' tunnels
// itself, as the program will, to keep damage states routable.
func newChurnInputs(seed int64, pairs [][2]int, n int) (*churnInputs, error) {
	base := kdlBase()
	set := tunnels.ComputeForPairs(base, pairs, tunnelsPerFlow)
	in := &churnInputs{
		seed:   seed,
		base:   base,
		set:    set,
		links:  base.UndirectedLinks(),
		shared: sharedLinks(set),
	}
	var err error
	if in.warm, err = in.draw(churnWarmStream, 0); err != nil {
		return nil, err
	}
	in.pool = make([]*request, n)
	ds := make([]*tensor.Dense, n)
	for i := range in.pool {
		r, err := in.draw(churnServeStream, int64(i))
		if err != nil {
			return nil, err
		}
		in.pool[i], ds[i] = r, r.d
	}
	if err := distinctKeys(te.NewProblem(base, set), ds); err != nil {
		return nil, err
	}
	return in, nil
}

// draw makes input i of a stream: a fresh damage state of the base graph
// and a fresh gravity TM scaled so the links every tunnel of a flow
// shares sit at a utilization drawn from [0.5, 0.9].
func (in *churnInputs) draw(stream, i int64) (*request, error) {
	rng := rand.New(rand.NewSource(splitSeed(in.seed, stream, i)))
	g, err := damage(in.base, in.set, in.links, rng)
	if err != nil {
		return nil, fmt.Errorf("request %d: %w", i, err)
	}
	d := gravityDemand(in.base, in.set, rng)
	target := 0.5 + 0.4*rng.Float64()
	scaleInPlace(d, target/sharedLoadBound(g, in.shared, d))
	return &request{idx: int(i), g: g, d: d}, nil
}

// gen serves the pool, then draws requests past it on demand from the
// same stream.
func (in *churnInputs) gen(i int) (*request, error) {
	if i < len(in.pool) {
		return in.pool[i], nil
	}
	return in.draw(churnServeStream, int64(i))
}

// ---------------------------------------------------------------------
// mixed-fleet

const (
	topoAbilene = iota
	topoB4
	topoKDL
	numFleetTopos
)

// flashShare is the fixed share of mixed-fleet requests that are
// flash-crowd demands far outside the trained profile.
const flashShare = 0.02

// repeatShare is the share of mixed-fleet requests that exactly repeat an
// earlier TM. It stays clearly below one half: cache hits answer in well
// under a millisecond and misses take over ten, so at one half the
// median request would flip between the two from run to run.
const repeatShare = 0.4

// repeatWindow is how many recent fresh TMs of a topology a repeat may
// pick from; it keeps the repeated working set inside the split cache.
const repeatWindow = 32

type fleetInputs struct {
	probs []*te.Problem                  // the inputs' own copies of the three problems
	pools [numFleetTopos][]*tensor.Dense // fresh TMs per topology, distinct under CacheKey
	extra [numFleetTopos][]*tensor.Dense
	warm  [numFleetTopos]*tensor.Dense
	// seq[i] = (topology, pool index, flash) of request i, drawn up front
	// so the sequence does not depend on timing.
	seq []fleetPick
}

type fleetPick struct {
	topo, tm int
	flash    bool
	hotNode  int
}

// fleetProblems builds Abilene, B4 (all pairs) and KDL-scale with 60
// fixed flows, K=4 each.
func fleetProblems(st *stack) []*te.Problem {
	ab := topology.Abilene()
	b4 := topology.B4()
	kdl := kdlBase()
	pairs := randomPairs(kdl, fleetKDLFlows, rand.New(rand.NewSource(fleetKDLPairSeed)))
	return []*te.Problem{
		te.NewProblem(ab, computeTunnels(st, ab, nil)),
		te.NewProblem(b4, computeTunnels(st, b4, nil)),
		te.NewProblem(kdl, computeTunnels(st, kdl, pairs)),
	}
}

func fleetDemands(p *te.Problem, topo, n int, seed int64, scale float64) []*tensor.Dense {
	if topo != topoKDL {
		return seriesDemands(p, n, seed, scale)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Dense, n)
	for i := range out {
		out[i] = gravityDemand(p.Graph, p.Tunnels, rng)
		scaleInPlace(out[i], scale)
	}
	return out
}

func newFleetInputs(seed int64, perTopo, requests int) (*fleetInputs, error) {
	probs := fleetProblems(&stack{})
	in := &fleetInputs{probs: probs}
	for t, p := range probs {
		first := fleetDemands(p, t, 1, splitSeed(seed, 20, int64(t)), 1)[0]
		scale, err := optScale(p, first, loadedMLU)
		if err != nil {
			return nil, err
		}
		in.pools[t] = fleetDemands(p, t, perTopo, splitSeed(seed, 20, int64(t)), scale)
		in.extra[t] = fleetDemands(p, t, 8, splitSeed(seed, 21, int64(t)), scale)
		in.warm[t] = fleetDemands(p, t, 1, splitSeed(seed, 22, int64(t)), scale)[0]
		all := append(append(append([]*tensor.Dense{}, in.pools[t]...), in.extra[t]...), in.warm[t])
		if err := distinctKeys(p, all); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(splitSeed(seed, 23, 0)))
	var fresh [numFleetTopos]int
	in.seq = make([]fleetPick, requests)
	for i := range in.seq {
		// Topologies interleave round-robin, so every run and every
		// checked sample holds the same topology mix.
		t := i % numFleetTopos
		pk := fleetPick{topo: t}
		switch {
		case rng.Float64() < flashShare:
			pk.flash = true
			pk.tm = rng.Intn(len(in.pools[t]))
			pk.hotNode = rng.Intn(probs[t].Graph.NumNodes)
		case fresh[t] > 0 && rng.Float64() < repeatShare/(1-flashShare):
			// An exact repeat of one of the topology's recent fresh TMs.
			lo := fresh[t] - repeatWindow
			if lo < 0 {
				lo = 0
			}
			pk.tm = lo + rng.Intn(fresh[t]-lo)
		default:
			if fresh[t] >= len(in.pools[t]) {
				return nil, fmt.Errorf("mixed-fleet pool for topology %d exhausted", t)
			}
			pk.tm = fresh[t]
			fresh[t]++
		}
		in.seq[i] = pk
	}
	return in, nil
}

// flash returns a flash crowd on d: every flow into hot scaled 40x, as
// traffic.FlashCrowd does on a full matrix.
func flash(p *te.Problem, d *tensor.Dense, hot int) *tensor.Dense {
	out := d.Clone()
	hit := false
	for f, fl := range p.Tunnels.Flows {
		if fl.Dst == hot {
			out.Data[f] *= 40
			hit = true
		}
	}
	if !hit {
		// The hot node terminates no flow: crowd the first flow's
		// destination instead.
		return flash(p, d, p.Tunnels.Flows[0].Dst)
	}
	return out
}

// setupFleet builds the mixed-fleet stack: two replicas, each a server
// with its own copy of the model, batching, the split cache and the OOD
// guard on, behind a sharded, hedging fleet.
func setupFleet(modelPath string, in *fleetInputs) (*stack, error) {
	st := &stack{}
	st.problems = fleetProblems(st)
	profile := resilience.NewOODProfile()
	for t, p := range st.problems {
		if err := profile.ObserveSeries(p, in.pools[t]); err != nil {
			return nil, err
		}
		if err := profile.ObserveSeries(p, in.extra[t]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 2; i++ {
		m, err := loadModel(modelPath)
		if err != nil {
			return nil, err
		}
		st.model = m
		guard := resilience.NewOODGuard()
		guard.SetProfile(profile)
		st.opts = serverOptions()
		st.opts.BatchMaxSize = batchMaxSize
		st.opts.OOD = guard
		st.servers = append(st.servers, resilience.NewServer(m, st.opts))
	}
	st.fleet = newFleet(st.servers)
	probs := st.problems
	f := st.fleet
	st.do = func(ctx context.Context, r *request) answer {
		return serveFleet(ctx, f, &st.fo, probs[r.topo], r.d)
	}
	for t, p := range probs {
		if dec := f.Serve(p, in.warm[t]); dec.Err != nil {
			return nil, fmt.Errorf("warm-up on %s: %w", p.Graph.Name, dec.Err)
		}
	}
	return st, nil
}

func (in *fleetInputs) gen(i int) (*request, error) {
	if i >= len(in.seq) {
		return nil, fmt.Errorf("mixed-fleet sequence of %d requests exhausted", len(in.seq))
	}
	pk := in.seq[i]
	d := in.pools[pk.topo][pk.tm]
	if pk.flash {
		d = flash(in.probs[pk.topo], d, pk.hotNode)
	}
	return &request{idx: i, topo: pk.topo, d: d, ood: pk.flash}, nil
}
