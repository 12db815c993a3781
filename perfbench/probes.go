package main

// Layer probes: the traced run times each layer's public calls directly,
// outside the serving stack, on the workload's own inputs. Allocations
// come from runtime.MemStats deltas; GFLOP/s from FLOP counts computed
// from the problem dimensions and the model Config (not from counters).

import (
	"context"
	"runtime"
	"time"

	"harpte/internal/autograd"
	"harpte/internal/core"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/tunnels"
)

// probeInput is one (problem, demand) pair the probes run on. Inputs
// that share a problem pointer share a topology.
type probeInput struct {
	p *te.Problem
	d *tensor.Dense
}

// probeEnv is what the probes need from a workload.
type probeEnv struct {
	model     *core.Model
	inputs    []probeInput
	train     []core.Sample // one batch for the training-step probe
	newServer func() *resilience.Server
	withFleet bool // the workload already measures its fleet; skip the fleet probe
}

func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// allocsOf runs f and returns the heap allocations and bytes it made.
func allocsOf(f func()) (allocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// distinctProblems returns each problem of the inputs once, in order.
func distinctProblems(ins []probeInput) []*te.Problem {
	seen := map[*te.Problem]bool{}
	var out []*te.Problem
	for _, in := range ins {
		if !seen[in.p] {
			seen[in.p] = true
			out = append(out, in.p)
		}
	}
	return out
}

// oneProblemPerTopology keeps the first problem of each distinct tunnel
// set: kdl-churn's damaged problems all share one, and the batch and
// kernel probes need one representative per topology, not per damage
// state.
func oneProblemPerTopology(probs []*te.Problem) []*te.Problem {
	seen := map[*tunnels.Set]bool{}
	var out []*te.Problem
	for _, p := range probs {
		if !seen[p.Tunnels] {
			seen[p.Tunnels] = true
			out = append(out, p)
		}
	}
	return out
}

// forwardFLOPs counts the multiply-adds (×2) of one full-RAU forward on p
// from the problem's dimensions and the model Config: GCN layers, edge
// projection, SETTRANS (Q/K/V/O projections, per-tunnel attention,
// feed-forward), MLP1, and every RAU iteration including its link-load
// product. Element-wise work is left out.
func forwardFLOPs(cfg core.Config, p *te.Problem) float64 {
	g := p.Graph
	v, e := float64(g.NumNodes), float64(g.NumEdges())
	nnzA := float64(g.NormalizedAdjacency().NNZ())
	r, h := float64(cfg.EmbedDim), float64(cfg.GNNHidden)
	var f float64
	in := 2.0
	for l := 0; l < cfg.GNNLayers; l++ {
		f += 2*nnzA*in + 2*v*in*h
		in = h
	}
	f += 2 * e * (float64(cfg.GNNLayers)*h + 1) * r
	var tokens, sq float64
	for _, paths := range p.Tunnels.PerFlow {
		for _, t := range paths {
			n := float64(len(t.Edges) + 1)
			tokens += n
			sq += n * n
		}
	}
	for l := 0; l < cfg.SetTransLayers; l++ {
		f += 4*2*tokens*r*r + 2*2*sq*r + 2*2*tokens*r*float64(cfg.FFDim)
	}
	t := float64(p.Tunnels.NumTunnels())
	mh, rh := float64(cfg.MLP1Hidden), float64(cfg.RAUHidden)
	nnzInc := float64(p.Incidence().NNZ())
	f += 2*t*(r+1)*mh + 2*t*mh + 2*nnzInc
	f += float64(cfg.RAUIterations) * (2*t*(2*r+5)*rh + 2*t*rh*2 + 2*nnzInc)
	return f
}

// stageTimes runs SplitsSpan (or SplitsBatchSpan) under a probe trace and
// returns each forward stage span's durations by name.
func stageTimes(run func(sp *reqtrace.Span)) map[string][]time.Duration {
	rec := reqtrace.NewRecorder(reqtrace.Options{SampleEvery: 1})
	_, root := rec.StartTrace(context.Background(), "probe")
	run(root)
	root.End()
	out := map[string][]time.Duration{}
	for _, td := range rec.Snapshot().Traces {
		for _, s := range td.Spans {
			if s.Parent != 0 && s.DurUS >= 0 {
				out[s.Name] = append(out[s.Name], time.Duration(s.DurUS*1e3))
			}
		}
	}
	return out
}

func medianMs(ds []time.Duration) float64 { return median(ms(ds)) }

// runProbes fills the per-layer probe metrics into v.
func runProbes(v values, env probeEnv) error {
	m := env.model
	ins := env.inputs
	probs := distinctProblems(ins)
	ctxs := map[*te.Problem]*core.Context{}
	for _, p := range probs {
		ctxs[p] = m.Context(p)
	}
	// Warm the engine once per topology so lazy pools and scratch exist.
	for _, p := range probs {
		for _, in := range ins {
			if in.p == p {
				m.Splits(ctxs[p], in.d)
				break
			}
		}
	}

	// te and core.Context on every input.
	var prob, cctx, vet []time.Duration
	for _, in := range ins {
		prob = append(prob, timeIt(func() { te.NewProblem(in.p.Graph, in.p.Tunnels) }))
		cctx = append(cctx, timeIt(func() { m.Context(in.p) }))
	}
	v["te.problem_ms_p50"] = medianMs(prob)
	v["core.context_ms_p50"] = medianMs(cctx)

	// Model.Splits: time, allocations, computed GFLOP/s.
	var splits []time.Duration
	outs := make([]*tensor.Dense, len(ins))
	var flops float64
	allocs, byts := allocsOf(func() {
		for i, in := range ins {
			splits = append(splits, timeIt(func() { outs[i] = m.Splits(ctxs[in.p], in.d) }))
		}
	})
	var total time.Duration
	for i, in := range ins {
		flops += forwardFLOPs(m.Cfg, in.p)
		total += splits[i]
	}
	v["core.splits_ms_p50"] = medianMs(splits)
	v["core.splits_allocs"] = float64(allocs) / float64(len(ins))
	v["core.splits_bytes"] = float64(byts) / float64(len(ins))
	v["core.forward_gflops"] = flops / total.Seconds() / 1e9
	for i, in := range ins {
		c := outs[i].Clone()
		vet = append(vet, timeIt(func() { _, _ = resilience.VetSplits(in.p, c) }))
	}
	v["te.vet_ms_p50"] = medianMs(vet)

	// Stage spans of the tape engine (Splits).
	stages := map[string][]time.Duration{}
	for _, in := range ins {
		for k, ds := range stageTimes(func(sp *reqtrace.Span) { m.SplitsSpan(sp, ctxs[in.p], in.d) }) {
			stages[k] = append(stages[k], ds...)
		}
	}
	gnn, st := medianMs(stages["forward.gnn"]), medianMs(stages["forward.settrans"])
	mlp1, rau := medianMs(stages["forward.mlp1"]), medianMs(stages["forward.rau"])
	v["core.gnn_ms"], v["core.settrans_ms"], v["core.mlp1_ms"], v["core.rau_ms"] = gnn, st, mlp1, rau
	v["core.embed_share"] = (gnn + st) / (gnn + st + mlp1 + rau)

	// SplitsBatch at B=1 and B=8 on each topology of the inputs.
	var b1, b8, adj []time.Duration
	topos := oneProblemPerTopology(probs)
	for _, p := range topos {
		var ds []*tensor.Dense
		for len(ds) < 8 {
			for _, in := range ins {
				if in.p.Tunnels == p.Tunnels && len(ds) < 8 {
					ds = append(ds, in.d)
				}
			}
		}
		m.SplitsBatch(nil, ctxs[p], ds[:1])
		for _, d := range ds[:4] {
			b1 = append(b1, timeIt(func() { m.SplitsBatch(nil, ctxs[p], []*tensor.Dense{d}) }))
		}
		for i := 0; i < 2; i++ {
			b8 = append(b8, timeIt(func() { m.SplitsBatch(nil, ctxs[p], ds) })/8)
		}
		for _, a := range stageTimes(func(sp *reqtrace.Span) { m.SplitsBatchSpan(nil, ctxs[p], ds, sp) })["forward.adjust"] {
			adj = append(adj, a/8)
		}
	}
	v["core.batch1_ms"] = medianMs(b1)
	v["core.batch8_ms_per_snapshot"] = medianMs(b8)
	v["core.adjust_ms"] = medianMs(adj)

	tensorProbes(v, m.Cfg, topos)
	if err := trainProbes(v, m, env.train); err != nil {
		return err
	}
	serverProbes(v, env, splits)
	return nil
}

// tensorProbes measures MatMul at the forward's dominant tall-skinny
// shape (tokens × r times r × FFDim, the SETTRANS feed-forward) and
// CSR.MulDense at the incidence and normalized-adjacency shapes, on each
// problem's own sizes.
func tensorProbes(v values, cfg core.Config, probs []*te.Problem) {
	const minTime = 30 * time.Millisecond
	var mmFlops, csrFlops float64
	var mmTime, csrTime time.Duration
	for _, p := range probs {
		tokens := 0
		for _, paths := range p.Tunnels.PerFlow {
			for _, t := range paths {
				tokens += len(t.Edges) + 1
			}
		}
		a := tensor.New(tokens, cfg.EmbedDim)
		b := tensor.New(cfg.EmbedDim, cfg.FFDim)
		for i := range a.Data {
			a.Data[i] = float64(i%7) * 0.1
		}
		for i := range b.Data {
			b.Data[i] = float64(i%5) * 0.1
		}
		dst := tensor.New(tokens, cfg.FFDim)
		for start := time.Now(); time.Since(start) < minTime; {
			mmTime += timeIt(func() { tensor.MatMul(dst, a, b) })
			mmFlops += 2 * float64(tokens*cfg.EmbedDim*cfg.FFDim)
		}
		inc := p.Incidence()
		x := tensor.New(inc.Cols, 1)
		y := tensor.New(inc.Rows, 1)
		adj := p.Graph.NormalizedAdjacency()
		h := tensor.New(adj.Cols, cfg.GNNHidden)
		hy := tensor.New(adj.Rows, cfg.GNNHidden)
		x.Fill(1)
		h.Fill(1)
		for start := time.Now(); time.Since(start) < minTime; {
			csrTime += timeIt(func() { inc.MulDense(y, x) })
			csrTime += timeIt(func() { adj.MulDense(hy, h) })
			csrFlops += 2*float64(inc.NNZ()) + 2*float64(adj.NNZ()*cfg.GNNHidden)
		}
	}
	v["tensor.matmul_gflops"] = mmFlops / mmTime.Seconds() / 1e9
	v["tensor.csr_gflops"] = csrFlops / csrTime.Seconds() / 1e9
}

// trainProbes times TrainStep, and the tape's Forward and Backward, on a
// private copy of the model so the served weights never change. It also
// reports the live heap that training holds: the model copy, Adam's
// moments and the reusable training tape.
func trainProbes(v values, served *core.Model, batch []core.Sample) error {
	base := liveHeap()
	m, err := cloneModel(served)
	if err != nil {
		return err
	}
	opt := autograd.NewAdam(core.DefaultTrainConfig().LR)
	m.TrainStep(opt, batch) // builds the reusable training tape
	var steps []time.Duration
	allocs, _ := allocsOf(func() {
		for i := 0; i < 2; i++ {
			steps = append(steps, timeIt(func() { m.TrainStep(opt, batch) }))
		}
	})
	v["core.train_step_ms_p50"] = medianMs(steps)
	v["autograd.allocs_per_step"] = float64(allocs) / float64(len(steps))
	v["autograd.train_heap_mb"] = heapMiB(liveHeap(), base)
	tp := autograd.NewReusableTape()
	var fwd, bwd []time.Duration
	for _, s := range batch[:4] {
		var loss *autograd.Tensor
		fwd = append(fwd, timeIt(func() {
			fr := m.Forward(tp, s.Ctx, s.Demand)
			loss = m.LossMLU(tp, s.Ctx, fr.Splits, s.Demand)
		}))
		bwd = append(bwd, timeIt(func() { tp.Backward(loss) }))
		tp.Reset()
	}
	v["autograd.forward_ms"] = medianMs(fwd)
	v["autograd.backward_ms"] = medianMs(bwd)
	return nil
}

// serverProbes measures the serving overhead over a bare forward on the
// same inputs (a fresh server, so every request misses the split cache),
// and, when the workload has no fleet of its own, the self time of a
// one-replica fleet in front of such a server.
func serverProbes(v values, env probeEnv, splits []time.Duration) {
	srv := env.newServer()
	srv.Serve(env.inputs[0].p, env.inputs[0].d) // context and pools warm
	var serve []time.Duration
	for _, in := range env.inputs[1:] {
		serve = append(serve, timeIt(func() { srv.Serve(in.p, in.d) }))
	}
	v["resilience.overhead_ms_p50"] = medianMs(serve) - medianMs(splits[1:])
	if env.withFleet {
		return
	}
	log := newSpanLog()
	f := newFleet([]*resilience.Server{env.newServer()})
	defer f.Close()
	var fo fleetOutcome
	before := f.Stats()
	for _, in := range env.inputs {
		ctx, end := log.newTrace(context.Background(), "request")
		serveFleet(ctx, f, &fo, in.p, in.d)
		end()
	}
	v["fleet.self_ms_p50"] = medianMs(log.stats().fleetSelf)
	fleetMetrics(v, before, f.Stats(), &fo, float64(len(env.inputs)))
}
