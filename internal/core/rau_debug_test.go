package core

import (
	"fmt"
	"math/rand"

	"harpte/internal/autograd"
	"harpte/internal/tensor"
	"os"
	"testing"

	"harpte/internal/te"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

func TestRAUDebugTrace(t *testing.T) {
	if os.Getenv("HARP_PROBE") == "" {
		t.Skip()
	}
	g := topology.Abilene()
	set := tunnels.Compute(g, 4)
	p := te.NewProblem(g, set)
	cfg0 := DefaultConfig()
	cfg0.Seed = 2
	m := New(cfg0)
	ctx := m.Context(p)
	rng := rand.New(rand.NewSource(1))
	// Mirror experiments.trainSchemes exactly: capSum/8 total, σ=0.3,
	// capped at 0.35, seed 11, 32 TMs split 24/4/4, HARP seed 2.
	var capSum float64
	for _, e := range g.Edges {
		capSum += e.Capacity
	}
	scfg := traffic.DefaultSeriesConfig(capSum / 8)
	scfg.NoiseSigma = 0.3
	tms := traffic.Series(g, 32, scfg, 11)
	for _, tm := range tms {
		traffic.CapToAccess(tm, g, 0.35)
	}
	var train, val []Sample
	for i, tm := range tms {
		s := Sample{Ctx: ctx, Demand: traffic.DemandVector(tm, set.Flows)}
		if i < 24 {
			train = append(train, s)
		} else if i < 28 {
			val = append(val, s)
		}
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 25
	m.Fit(train, val, tc)
	_ = rng

	l := g.UndirectedLinks()[0]
	fg := g.WithFailedLink(l[0], l[1])
	fp := te.NewProblem(fg, set)
	fctx := m.Context(fp)
	d := traffic.DemandVector(tms[28], set.Flows)

	// Find the flow with the worst dead split and trace its logits.
	splits := m.Splits(fctx, d)
	worstF, worstK, worstW := -1, -1, 0.0
	for f := 0; f < fp.NumFlows(); f++ {
		for k := 0; k < set.K; k++ {
			if !te.TunnelAlive(fg, set.Tunnel(f, k)) && splits.At(f, k) > worstW {
				worstF, worstK, worstW = f, k, splits.At(f, k)
			}
		}
	}
	t.Logf("worst dead split %.4f at flow %d tunnel %d (flow %v, demand %.3f)",
		worstW, worstF, worstK, fp.Tunnels.Flows[worstF], d.Data[worstF])
	for k := 0; k < set.K; k++ {
		tun := set.Tunnel(worstF, k)
		t.Logf("  tunnel %d: len=%d alive=%v key=%s", k, len(tun.Edges),
			te.TunnelAlive(fg, tun), tun.Key(g))
	}
	kk := set.K
	m.debugRAU = func(iter int, u, base, penalty *tensorDense) {
		row := ""
		for k := 0; k < kk; k++ {
			idx := worstF*kk + k
			row += " " + fmt.Sprintf("[u=%.2f b=%.2f p=%.2f]", u.Data[idx], base.Data[idx], penalty.Data[idx])
		}
		t.Logf("iter %d:%s", iter, row)
	}
	// debugRAU observes the tape forward only (the inference engine has no
	// hook), so the trace reruns the same snapshot through Forward.
	m.Forward(autograd.NewTape(), fctx, d)
}

// tensorDense aliases the dense type for the debug hook signature.
type tensorDense = tensor.Dense
