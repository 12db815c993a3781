package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"harpte/internal/core"
	"harpte/internal/lp"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// refTolerance is the largest per-entry difference between a served
// answer and its reference forward that still counts as a match. The
// engines are meant to be bit-identical, so anything above float noise is
// a divergence.
const refTolerance = 1e-9

// diffEntries counts the entries of a and b that differ by more than tol;
// a shape mismatch counts every entry of a.
func diffEntries(a, b *tensor.Dense, tol float64) int {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return len(a.Data)
	}
	n := 0
	for i, v := range a.Data {
		if !(math.Abs(v-b.Data[i]) <= tol) {
			n++
		}
	}
	return n
}

// refModels are the reference forwards a served answer is pinned to:
// full-tier and cached answers to the full model's Splits, reduced-tier
// answers to the same weights at the reduced RAU depth.
type refModels struct {
	full, reduced *core.Model
}

func newRefModels(m *core.Model) refModels {
	return refModels{full: m, reduced: m.WithRAUIterations(reducedRAUIters)}
}

// scored is one sampled answer scored against the optimum.
type scored struct {
	p    *te.Problem
	d    *tensor.Dense
	norm float64
	opt  float64
	// ecmpNorm is the ECMP tier's answer (uniform splits over each
	// flow's live tunnels) scored on the same input: the routing a model
	// regression would fall towards.
	ecmpNorm float64
	lpTime   time.Duration
	lpMethod string
}

// checkResult is the outcome of the reference diff and quality scoring.
type checkResult struct {
	checked, mismatched, entries int
	scored                       []scored
}

// checkAndScore diffs up to checkMax kept neural or cached answers
// against their reference forward, and scores up to scoreMax in-profile
// answers' MLU against the optimum from internal/lp (Solve picks the
// engine by problem size; the engine is recorded).
func checkAndScore(kept []outcome, refs refModels, checkMax, scoreMax int) checkResult {
	sort.Slice(kept, func(i, j int) bool { return kept[i].req.idx < kept[j].req.idx })
	var res checkResult
	ctxs := make(map[*te.Problem]*core.Context)
	for _, o := range kept {
		a := o.ans
		var ref *core.Model
		switch a.tier {
		case resilience.TierFull, resilience.TierCached:
			ref = refs.full
		case resilience.TierReducedRAU:
			ref = refs.reduced
		}
		if ref != nil && res.checked < checkMax {
			c := ctxs[a.p]
			if c == nil {
				c = ref.Context(a.p)
				ctxs[a.p] = c
			}
			n := diffEntries(a.splits, ref.Splits(c, o.req.d), refTolerance)
			res.checked++
			res.entries += n
			if n > 0 {
				res.mismatched++
			}
		}
		if o.req.ood || len(res.scored) >= scoreMax {
			continue
		}
		t0 := time.Now()
		r := lp.Solve(a.p, o.req.d)
		res.scored = append(res.scored, scored{
			p: a.p, d: o.req.d,
			norm:     te.NormMLU(a.p.MLU(a.splits, o.req.d), r.MLU),
			opt:      r.MLU,
			ecmpNorm: te.NormMLU(a.p.MLU(te.NormalizeRows(te.Rescale(a.p, a.p.UniformSplits())), o.req.d), r.MLU),
			lpTime:   time.Since(t0),
			lpMethod: r.Method,
		})
	}
	return res
}

// valSamples turns scored answers into validation samples whose demand is
// rescaled so the optimal MLU is exactly 1: the validation MLU then reads
// both as an MLU and as a ratio to optimal, and does not swing with the
// seed's traffic volume.
func valSamples(m *core.Model, sc []scored, n int) ([]core.Sample, error) {
	if len(sc) == 0 {
		return nil, fmt.Errorf("no scored answers to validate on")
	}
	n = min(n, len(sc))
	out := make([]core.Sample, n)
	ctxs := make(map[*te.Problem]*core.Context)
	for i, s := range sc[:n] {
		if !(s.opt > 0) {
			return nil, fmt.Errorf("scored answer %d has optimal MLU %v", i, s.opt)
		}
		d := s.d.Clone()
		scaleInPlace(d, 1/s.opt)
		c := ctxs[s.p]
		if c == nil {
			c = m.Context(s.p)
			ctxs[s.p] = c
		}
		out[i] = core.Sample{Ctx: c, Demand: d}
	}
	return out, nil
}
