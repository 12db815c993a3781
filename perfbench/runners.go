package main

import (
	"bytes"
	"fmt"

	"harpte/internal/core"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// run dispatches one invocation to its workload.
func run(rc runCfg) (*runOut, error) {
	switch rc.workload {
	case "abilene-steady":
		return runAbileneSteady(rc)
	case "kdl-churn":
		return runKDLChurn(rc)
	case "mixed-fleet":
		return runMixedFleet(rc)
	case "abilene-train":
		return runAbileneTrain(rc)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", rc.workload, workloadNames)
}

// poolSize sizes a pre-generated request pool for rate requests per
// second over the run, with a floor for short test runs.
func poolSize(rc runCfg, rate float64) int {
	return int(rc.seconds*rate) + 64
}

// abilene-steady: one fixed topology, one closed-loop client, every
// demand new to the split cache.
func runAbileneSteady(rc runCfg) (*runOut, error) {
	in, err := newAbileneInputs(rc.seed, poolSize(rc, 300))
	if err != nil {
		return nil, err
	}
	return runServing(rc, abileneServing(in, func() (*core.Model, error) { return loadModel(rc.modelPath) }, 8))
}

// abileneServing serves the Abilene inputs the way abilene-steady does,
// with the model that load returns.
func abileneServing(in *abileneInputs, load func() (*core.Model, error), tuneEpochs int) servingDef {
	return servingDef{
		clients: 1,
		setup:   func() (*stack, error) { return setupAbilene(load, in) },
		gen:     in.gen,
		stride:  4, checkMax: 64, scoreMax: 128,
		extra: func(st *stack) ([]probeInput, error) {
			return abileneExtra(st.problems[0], in.extra), nil
		},
		tuneEpochs: tuneEpochs,
	}
}

func abileneExtra(p *te.Problem, ds []*tensor.Dense) []probeInput {
	out := make([]probeInput, len(ds))
	for i, d := range ds {
		out[i] = probeInput{p: p, d: d}
	}
	return out
}

// kdl-churn: every request a new damage state of the KDL-scale graph and
// a new TM; the request pays te.NewProblem plus Serve.
func runKDLChurn(rc runCfg) (*runOut, error) {
	pairs := churnPairs()
	in, err := newChurnInputs(rc.seed, pairs, poolSize(rc, 25))
	if err != nil {
		return nil, err
	}
	return runServing(rc, servingDef{
		clients: 1,
		setup:   func() (*stack, error) { return setupChurn(rc.modelPath, pairs, in.warm) },
		gen:     in.gen,
		// A KDL-200 solve takes 100–200 ms (MWU), so fewer are scored.
		stride: 2, checkMax: 32, scoreMax: 32,
		extra: func(st *stack) ([]probeInput, error) {
			var out []probeInput
			for j := 0; j < 16; j++ {
				r, err := in.draw(churnExtraStream, int64(j))
				if err != nil {
					return nil, err
				}
				out = append(out, probeInput{p: te.NewProblem(r.g, st.set), d: r.d})
			}
			return out, nil
		},
		tuneEpochs: 3,
	})
}

// mixed-fleet: two replicas behind a sharded fleet, two clients over
// three topologies, two in five requests exact repeats.
func runMixedFleet(rc runCfg) (*runOut, error) {
	// Sized for about four times today's rate: a fifth of the requests
	// draw a fresh TM of each topology.
	in, err := newFleetInputs(rc.seed, poolSize(rc, 250), poolSize(rc, 1000))
	if err != nil {
		return nil, err
	}
	return runServing(rc, servingDef{
		clients: 2,
		setup:   func() (*stack, error) { return setupFleet(rc.modelPath, in) },
		gen:     in.gen,
		stride:  4, checkMax: 96, scoreMax: 128,
		extra: func(st *stack) ([]probeInput, error) {
			var out []probeInput
			for j := 0; j < 8; j++ {
				for t, p := range st.problems {
					if len(out) < 24 {
						out = append(out, probeInput{p: p, d: in.extra[t][j]})
					}
				}
			}
			return out, nil
		},
		tuneEpochs: 8,
	})
}

// trainEpochs is abilene-train's fixed Fit length: 16 steps of 8 samples,
// about 7 s on two cores. It does not depend on --seconds, so the
// validation MLU is reproducible for a given seed and the serving phase
// after it is as long as abilene-steady's.
const trainEpochs = 4

// abilene-train: Fit a fresh model on Abilene for trainEpochs, then load
// the trained model and serve it exactly as abilene-steady serves the
// committed one.
func runAbileneTrain(rc runCfg) (*runOut, error) {
	in, err := newAbileneInputs(rc.seed, poolSize(rc, 300))
	if err != nil {
		return nil, err
	}
	p := in.p
	trainD := seriesDemands(p, 32, splitSeed(rc.seed, 40, 0), in.scale)
	valD := seriesDemands(p, 8, splitSeed(rc.seed, 41, 0), in.scale)
	for _, d := range valD {
		s, err := optScale(p, d, 1)
		if err != nil {
			return nil, err
		}
		scaleInPlace(d, s)
	}

	m := core.New(core.DefaultConfig())
	ps := make([]*te.Problem, len(trainD))
	for j := range ps {
		ps[j] = p
	}
	train, val := samplesFor(m, ps, trainD), samplesFor(m, ps[:len(valD)], valD)
	fs, err := fitPhase(rc.host, m, train, val, trainEpochs)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	trained := buf.Bytes()

	out, err := runServing(rc, abileneServing(in, func() (*core.Model, error) {
		return core.Load(bytes.NewReader(trained))
	}, 0))
	if err != nil {
		return nil, err
	}
	v := out.v
	v["train_samples_per_s"] = fs.samplesPerSec
	v["wall.train_samples_per_s"] = fs.wallSamplesPerSec
	v["train_val_mlu"] = fs.bestVal
	out.attempted += int64(fs.steps)
	out.failed += int64(fs.failedSteps())
	v["fail_rate"] = ratio(float64(out.failed), float64(out.attempted))
	v["ok_rate"] = 1 - v["fail_rate"]
	return out, nil
}
