package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"harpte/internal/core"
	"harpte/internal/fleet"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// A run builds its program state at least minSetups times, and more while
// the builds have taken less than setupBudget, up to maxSetups; setup_s
// is the median, each build taken at the reference speed (see calib.go).
// Cheap set-ups (a few milliseconds on Abilene) are noisy, so they get
// more repetitions. The last build serves the timed phase. Builds after
// the first find the program's package-level pools warm, so the first
// build is also reported on its own (setup.first_s, wall time).
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// setupTimes are a run's set-up figures in seconds.
type setupTimes struct {
	ref     float64 // median build at the reference speed (setup_s)
	wall    float64 // median build, wall time
	first   float64 // the first build, wall time
	tunnels float64 // median tunnel computation inside a build, wall time
}

// repeatSetup calls build until the repetition rule above stops it.
func repeatSetup(host *hostSampler, build func() error) (setupTimes, error) {
	var wall, ref []float64
	start := time.Now()
	for len(wall) < minSetups || (len(wall) < maxSetups && time.Since(start) < setupBudget) {
		t0 := time.Now()
		if err := build(); err != nil {
			return setupTimes{}, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		d := t1.Sub(t0).Seconds()
		wall = append(wall, d)
		ref = append(ref, d*host.factor(t0, t1))
	}
	return setupTimes{ref: median(ref), wall: median(wall), first: wall[0]}, nil
}

// runCfg is one benchmark invocation.
type runCfg struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	modelPath string
	traceDir  string // where a traced run writes its spans
	log       io.Writer
	host      *hostSampler // samples the host's speed for the whole run
}

func (rc runCfg) dur() time.Duration { return time.Duration(rc.seconds * float64(time.Second)) }

// runOut is what a run measured.
type runOut struct {
	v         values
	attempted int64
	failed    int64
	invalid   []error
}

// servingDef describes one serving workload to the common runner.
type servingDef struct {
	clients int
	// setup builds the program state; timed, repeated (see repeatSetup).
	setup func() (*stack, error)
	// gen draws request i; the workload generates its inputs before the
	// run starts.
	gen func(i int) (*request, error)
	// stride picks the fixed sample of requests kept for checking:
	// indices 0, stride, 2·stride, … The first checkMax kept neural
	// answers are diffed against the reference forward, and the first
	// scoreMax kept in-profile answers are scored against the optimum.
	stride, checkMax, scoreMax int
	// extra returns inputs never served, built after the timed phase:
	// probe inputs, then the fine-tune batch (the last 8).
	extra      func(st *stack) ([]probeInput, error)
	tuneEpochs int
}

// counters is a snapshot of the program's public counters.
type counters struct {
	tiers                   map[resilience.Tier]int64
	shed, demoted           int64
	hits, misses, evictions int64
	dispatches, batched     int64
	fleet                   fleet.Stats
}

func snapshotCounters(st *stack) counters {
	c := counters{tiers: map[resilience.Tier]int64{}}
	for _, s := range st.servers {
		for t, n := range s.TierCounts() {
			c.tiers[t] += n
		}
		ss := s.Stats()
		c.shed += ss.Shed
		c.demoted += ss.OOD.SuspectDemotions + ss.OOD.HostileDemotions
		c.hits += ss.Cache.Hits
		c.misses += ss.Cache.Misses
		c.evictions += ss.Cache.Evictions
		c.dispatches += ss.Batch.Dispatches
		c.batched += ss.Batch.Batched
	}
	if st.fleet != nil {
		c.fleet = st.fleet.Stats()
	}
	return c
}

// counterMetrics turns the counter deltas of a run into per-layer rates.
// Tier shares are over server-level answers (a hedged request is answered
// twice).
func counterMetrics(v values, a, b counters) {
	var answers float64
	for t, n := range b.tiers {
		answers += float64(n - a.tiers[t])
	}
	tier := func(t resilience.Tier) float64 { return ratio(float64(b.tiers[t]-a.tiers[t]), answers) }
	v["resilience.tier_full_rate"] = tier(resilience.TierFull)
	v["resilience.tier_cached_rate"] = tier(resilience.TierCached)
	v["resilience.tier_reduced_rate"] = tier(resilience.TierReducedRAU)
	v["resilience.tier_ecmp_rate"] = tier(resilience.TierECMP)
	v["resilience.shed_rate"] = ratio(float64(b.shed-a.shed), answers)
	v["resilience.ood_demoted_rate"] = ratio(float64(b.demoted-a.demoted), answers)
	v["resilience.cache_hit_rate"] = ratio(float64(b.hits-a.hits), float64(b.hits-a.hits+b.misses-a.misses))
	v["resilience.cache_evictions"] = float64(b.evictions - a.evictions)
	v["resilience.batch_size_mean"] = ratio(float64(b.batched-a.batched), float64(b.dispatches-a.dispatches))
}

// fleetMetrics turns fleet counter deltas over n requests into rates.
func fleetMetrics(v values, a, b fleet.Stats, fo *fleetOutcome, n float64) {
	v["fleet.hedge_rate"] = ratio(float64(b.Hedges-a.Hedges), n)
	v["fleet.retry_rate"] = ratio(float64(b.Retries-a.Retries), n)
	v["fleet.fallback_rate"] = ratio(float64(b.LocalFallbacks-a.LocalFallbacks), n)
	v["fleet.home_replica_rate"] = ratio(float64(fo.home.Load()), float64(fo.byReplica.Load()))
}

// timedSetup builds the program state repeatedly (see repeatSetup) and
// returns the last build with the set-up times.
func timedSetup(host *hostSampler, setup func() (*stack, error)) (*stack, setupTimes, error) {
	var st *stack
	var tun []float64
	times, err := repeatSetup(host, func() error {
		if st != nil {
			st.close()
		}
		s, err := setup()
		if err != nil {
			return err
		}
		tun = append(tun, s.tunnels.Seconds())
		st = s
		return nil
	})
	if err != nil {
		return nil, setupTimes{}, err
	}
	times.tunnels = median(tun)
	return st, times, nil
}

// loadPhases runs the timed closed loop. An untraced run is one phase of
// the full duration. A traced run splits it: an untraced half, then a
// traced half, so the tracing overhead is measured in the same process.
func loadPhases(rc runCfg, clients int, gen func(int) (*request, error), do func(context.Context, *request) answer, keep func(int) bool) (phases []*loadResult, log *spanLog, err error) {
	spec := loadSpec{clients: clients, dur: rc.dur(), gen: gen, do: do, keep: keep}
	if !rc.traced {
		r, err := runLoad(context.Background(), spec)
		return []*loadResult{r}, nil, err
	}
	spec.dur /= 2
	a, err := runLoad(context.Background(), spec)
	if err != nil {
		return nil, nil, err
	}
	log = newSpanLog()
	spec.spans, spec.first = log, a.issued
	b, err := runLoad(context.Background(), spec)
	if err != nil {
		return nil, nil, err
	}
	log.merge()
	return []*loadResult{a, b}, log, nil
}

// loadTimes are a run's request latency and throughput figures.
type loadTimes struct {
	p50, p95 float64 // request latency, ms
	rps      float64 // answered requests per second
}

// phaseTimes returns the request p50, p95 and throughput of the phases
// at the reference speed and as wall time, and the median kernel time.
// Each request's latency is multiplied by the speed factor of the time it
// ran (see calib.go), and each answer counts one over that factor towards
// the throughput.
func phaseTimes(phases []*loadResult, host *hostSampler) (ref, wall loadTimes, calibMs float64) {
	var refLat, wallLat []float64
	var refAns, wallAns, secs float64
	for _, r := range phases {
		for i, d := range r.lat {
			end := r.start.Add(r.done[i])
			fi := host.factor(end.Add(-d), end)
			lat := float64(d.Nanoseconds()) / 1e6
			wallLat = append(wallLat, lat)
			refLat = append(refLat, lat*fi)
			if r.ok[i] {
				wallAns++
				refAns += 1 / fi
			}
		}
		secs += r.wall.Seconds()
	}
	ref = loadTimes{p50: quantile(refLat, 0.5), p95: quantile(refLat, 0.95), rps: refAns / secs}
	wall = loadTimes{p50: quantile(wallLat, 0.5), p95: quantile(wallLat, 0.95), rps: wallAns / secs}
	first, last := phases[0], phases[len(phases)-1]
	return ref, wall, host.medianMs(first.start, last.start.Add(last.wall))
}

// loadMetrics fills the metrics that come from the closed-loop phases.
// inputHeap is the live heap before the program was set up, which the
// generated inputs hold through the phase; heap_peak_mb leaves it out.
func loadMetrics(v values, out *runOut, phases []*loadResult, inputHeap uint64, host *hostSampler) []outcome {
	var kept []outcome
	var inProfile, degraded, gcs float64
	var peak uint64
	for _, r := range phases {
		kept = append(kept, r.kept...)
		out.attempted += int64(r.attempted)
		out.failed += int64(r.failed)
		out.invalid = append(out.invalid, r.invalid...)
		inProfile += float64(r.inProfile)
		degraded += float64(r.degraded)
		gcs += float64(r.gcs)
		peak = max(peak, r.heapPeak)
	}
	ref, wall, calibMs := phaseTimes(phases, host)
	v["serve_p50_ms"], v["serve_p95_ms"], v["throughput_rps"] = ref.p50, ref.p95, ref.rps
	v["wall.serve_p50_ms"], v["wall.serve_p95_ms"], v["wall.throughput_rps"] = wall.p50, wall.p95, wall.rps
	v["host.calib_ms"] = calibMs
	v["heap_peak_mb"] = heapMiB(peak, inputHeap)
	v["runtime.inputs_heap_mb"] = heapMiB(inputHeap, 0)
	v["runtime.gc_per_request"] = ratio(gcs, float64(out.attempted))
	v["fail_rate"] = ratio(float64(out.failed), float64(out.attempted))
	v["ok_rate"] = 1 - v["fail_rate"]
	v["degraded_rate"] = ratio(degraded, inProfile)
	v["undegraded_rate"] = 1 - v["degraded_rate"]
	if len(phases) == 2 {
		untraced, _, _ := phaseTimes(phases[:1], host)
		traced, _, _ := phaseTimes(phases[1:], host)
		v["trace.overhead_ratio"] = traced.p50 / untraced.p50
	}
	return kept
}

// checkMetrics fills the reference-diff and quality metrics.
func checkMetrics(v values, cr checkResult) {
	v["mismatch_rate"] = ratio(float64(cr.mismatched), float64(cr.checked))
	v["match_rate"] = 1 - v["mismatch_rate"]
	v["core.mismatch_entries"] = float64(cr.entries)
	var norm, ecmp, lpMs, opt []float64
	var mwu float64
	for _, s := range cr.scored {
		norm = append(norm, s.norm)
		ecmp = append(ecmp, s.ecmpNorm)
		opt = append(opt, s.opt)
		if s.lpMethod == "mwu" {
			mwu++
		}
		lpMs = append(lpMs, float64(s.lpTime.Nanoseconds())/1e6)
	}
	v["norm_mlu_p50"] = quantile(norm, 0.5)
	v["norm_mlu_p95"] = quantile(norm, 0.95)
	v["te.ecmp_norm_mlu_p50"] = quantile(ecmp, 0.5)
	v["lp.solve_ms_p50"] = median(lpMs)
	v["lp.mwu_share"] = ratio(mwu, float64(len(lpMs)))
	v["lp.opt_mlu_p50"] = median(opt)
}

// spanMetrics fills the per-layer metrics read from a traced phase.
func spanMetrics(v values, log *spanLog) {
	s := log.stats()
	serve := ms(s.serve)
	v["resilience.serve_ms_p50"] = quantile(serve, 0.5)
	v["resilience.serve_ms_p95"] = quantile(serve, 0.95)
	v["resilience.queue_wait_ms_p50"] = medianMs(s.queueWait)
	v["resilience.linger_ms_p50"] = medianMs(s.linger)
	v["trace.spans"] = float64(s.spans)
	if len(s.fleetSelf) > 0 {
		v["fleet.self_ms_p50"] = medianMs(s.fleetSelf)
	}
}

// runServing is the common runner of the three serving workloads.
func runServing(rc runCfg, def servingDef) (*runOut, error) {
	out := &runOut{v: values{}}
	v := out.v
	mark := time.Now()
	phase := func(name string) {
		fmt.Fprintf(rc.log, "perfbench: %s: %s %.2fs\n", rc.workload, name, time.Since(mark).Seconds())
		mark = time.Now()
	}
	inputHeap := liveHeap()
	st, times, err := timedSetup(rc.host, def.setup)
	if err != nil {
		return nil, err
	}
	v["setup_s"] = times.ref
	v["wall.setup_s"] = times.wall
	v["setup.first_s"] = times.first
	v["tunnels.compute_s"] = times.tunnels
	phase("set-up")
	keep := func(i int) bool { return i%def.stride == 0 && i/def.stride < max(def.checkMax, def.scoreMax) }

	runtime.GC()
	goroutines := runtime.NumGoroutine()
	c0 := snapshotCounters(st)
	st.fo.home.Store(0)
	st.fo.byReplica.Store(0)
	phases, log, err := loadPhases(rc, def.clients, def.gen, st.do, keep)
	if err != nil {
		return nil, err
	}
	c1 := snapshotCounters(st)
	st.close()
	v["runtime.goroutines_leaked"] = float64(runtime.NumGoroutine() - goroutines)
	kept := loadMetrics(v, out, phases, inputHeap, rc.host)
	counterMetrics(v, c0, c1)
	if st.fleet != nil {
		fleetMetrics(v, c0.fleet, c1.fleet, &st.fo, float64(out.attempted))
	}
	phase(fmt.Sprintf("timed phase, %d requests", out.attempted))

	cr := checkAndScore(kept, newRefModels(st.model), def.checkMax, def.scoreMax)
	checkMetrics(v, cr)
	phase(fmt.Sprintf("checked %d answers, scored %d", cr.checked, len(cr.scored)))

	extra, err := def.extra(st)
	if err != nil {
		return nil, err
	}
	tune := extra[len(extra)-8:]
	var trainPs []*te.Problem
	var trainDs []*tensor.Dense
	for _, in := range tune {
		trainPs, trainDs = append(trainPs, in.p), append(trainDs, in.d)
	}
	trainBatch := samplesFor(st.model, trainPs, trainDs)
	if !rc.traced && def.tuneEpochs > 0 {
		val, err := valSamples(st.model, cr.scored, 8)
		if err != nil {
			return nil, err
		}
		tuned, err := cloneModel(st.model)
		if err != nil {
			return nil, err
		}
		fs, err := fineTune(rc.host, tuned, trainBatch, val, def.tuneEpochs)
		if err != nil {
			return nil, err
		}
		v["train_samples_per_s"] = fs.samplesPerSec
		v["wall.train_samples_per_s"] = fs.wallSamplesPerSec
		v["train_val_mlu"] = fs.bestVal
		phase("fine-tune")
	}
	if rc.traced {
		spanMetrics(v, log)
		env := probeEnv{
			model:     st.model,
			inputs:    extra[:len(extra)-8],
			train:     trainBatch,
			newServer: func() *resilience.Server { return resilience.NewServer(st.model, st.opts) },
			withFleet: st.fleet != nil,
		}
		if err := runProbes(v, env); err != nil {
			return nil, err
		}
		phase("layer probes")
		if err := log.write(rc.traceDir, fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cloneModel copies a model through its serialized form.
func cloneModel(m *core.Model) (*core.Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return core.Load(&buf)
}
