package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"harpte/internal/core"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// fitStats is the outcome of one timed Fit.
type fitStats struct {
	samplesPerSec     float64 // at the reference speed (see calib.go)
	wallSamplesPerSec float64
	bestVal           float64
	steps             int
	skipped           int
}

// fitPhase runs Fit at DefaultTrainConfig (batch 8, seed 1) for epochs
// epochs and times it end to end, per-epoch validation included, as a
// user of Fit sees it. The rate is also taken at the reference speed (see
// calib.go).
func fitPhase(host *hostSampler, m *core.Model, train, val []core.Sample, epochs int) (fitStats, error) {
	tc := core.DefaultTrainConfig()
	tc.Epochs = epochs
	t0 := time.Now()
	res, err := m.FitCheckpointed(train, val, tc)
	t1 := time.Now()
	if err != nil {
		return fitStats{}, err
	}
	rate := float64(epochs*len(train)) / t1.Sub(t0).Seconds()
	st := fitStats{
		samplesPerSec:     rate / host.factor(t0, t1),
		wallSamplesPerSec: rate,
		bestVal:           res.BestValMLU,
		steps:             epochs * ((len(train) + tc.BatchSize - 1) / tc.BatchSize),
		skipped:           res.SkippedBatches,
	}
	return st, nil
}

// fineTune runs epochs one-epoch Fits in a row on m and reports the
// median epoch's samples per second and the best validation MLU. A
// fine-tune lasts a few seconds, and a host slow spell inside one Fit
// would set its rate alone; the median epoch does not move with it.
func fineTune(host *hostSampler, m *core.Model, train, val []core.Sample, epochs int) (fitStats, error) {
	var rates, wallRates []float64
	out := fitStats{bestVal: math.Inf(1)}
	for e := 0; e < epochs; e++ {
		fs, err := fitPhase(host, m, train, val, 1)
		if err != nil {
			return fitStats{}, err
		}
		rates = append(rates, fs.samplesPerSec)
		wallRates = append(wallRates, fs.wallSamplesPerSec)
		out.bestVal = min(out.bestVal, fs.bestVal)
		out.steps += fs.steps
		out.skipped += fs.skipped
	}
	out.samplesPerSec = median(rates)
	out.wallSamplesPerSec = median(wallRates)
	return out, nil
}

// failedSteps counts training steps without a usable result: batches the
// health guard skipped, plus every step when the validation MLU is not
// finite.
func (f fitStats) failedSteps() int {
	if math.IsNaN(f.bestVal) || math.IsInf(f.bestVal, 0) {
		return f.steps
	}
	return f.skipped
}

// samplesFor builds training samples over (problem, demand) pairs,
// sharing one context per problem.
func samplesFor(m *core.Model, ps []*te.Problem, ds []*tensor.Dense) []core.Sample {
	ctxs := make(map[*te.Problem]*core.Context)
	out := make([]core.Sample, len(ds))
	for i, d := range ds {
		c := ctxs[ps[i]]
		if c == nil {
			c = m.Context(ps[i])
			ctxs[ps[i]] = c
		}
		out[i] = core.Sample{Ctx: c, Demand: d}
	}
	return out
}

// trainModel trains the committed serving model from a fixed seed on the
// intact mixed-fleet topologies (Abilene, B4 and the 60-flow KDL-scale
// graph) and writes it to path. Damaged states are never shown to it, as
// in the paper. It is run once, by hand; the workloads only load it.
func trainModel(path string, log io.Writer) error {
	const seed = 424242
	probs := fleetProblems(&stack{})
	m := core.New(core.DefaultConfig())
	var trainP, valP []*te.Problem
	var trainD, valD []*tensor.Dense
	for t, p := range probs {
		first := fleetDemands(p, t, 1, splitSeed(seed, 30, int64(t)), 1)[0]
		scale, err := optScale(p, first, loadedMLU)
		if err != nil {
			return err
		}
		n := 48
		if t == topoKDL {
			n = 24
		}
		ds := fleetDemands(p, t, n+8, splitSeed(seed, 31, int64(t)), scale)
		for i, d := range ds {
			if i < n {
				trainP, trainD = append(trainP, p), append(trainD, d)
			} else {
				valP, valD = append(valP, p), append(valD, d)
			}
		}
	}
	tc := core.DefaultTrainConfig()
	tc.Workers = 2
	tc.Log = log
	res, err := m.FitCheckpointed(samplesFor(m, trainP, trainD), samplesFor(m, valP, valD), tc)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "trained %d epochs, best validation MLU %.4f\n", res.Epochs, res.BestValMLU)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
