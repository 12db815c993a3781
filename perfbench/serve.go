package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
)

// request is one generated serving input.
type request struct {
	idx  int
	topo int             // index into the workload's problem list
	g    *topology.Graph // damaged graph; the request builds its problem (kdl-churn)
	d    *tensor.Dense
	ood  bool // generated out of profile on purpose (flash crowd)
}

// answer is what the program returned for one request.
type answer struct {
	splits *tensor.Dense
	tier   resilience.Tier
	p      *te.Problem // the problem the splits are for
	err    error
}

// outcome is one finished request as the load loop saw it.
type outcome struct {
	req *request
	ans answer
	lat time.Duration
}

// loadResult summarizes one closed-loop phase.
type loadResult struct {
	lat       []time.Duration
	done      []time.Duration // completion time of each request, from the phase start
	ok        []bool          // whether each request got a valid answer
	attempted int
	failed    int
	invalid   []error
	// inProfile counts requests generated in profile; degraded those of
	// them answered by the reduced-RAU or ECMP tier.
	inProfile, degraded int
	kept                []outcome
	issued              int // one past the last request index sent
	wall                time.Duration
	heapPeak            uint64
	gcs                 uint32
	start               time.Time // when the phase began; done is from here
}

// loadSpec describes a closed-loop phase: clients each send their next
// request only after the previous one returns.
type loadSpec struct {
	clients int
	dur     time.Duration
	gen     func(i int) (*request, error)
	do      func(ctx context.Context, r *request) answer
	keep    func(i int) bool // which outcomes to keep for checking
	spans   *spanLog         // nil when untraced
	first   int              // index of the first request
}

// validSplits is the benchmark's own output check: shape F×K, finite,
// non-negative, and every row summing to 1.
func validSplits(p *te.Problem, s *tensor.Dense) error {
	if s == nil {
		return errors.New("nil splits")
	}
	if s.Rows != p.NumFlows() || s.Cols != p.Tunnels.K {
		return fmt.Errorf("splits are %dx%d, want %dx%d", s.Rows, s.Cols, p.NumFlows(), p.Tunnels.K)
	}
	for f := 0; f < s.Rows; f++ {
		var sum float64
		for _, v := range s.Row(f) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("flow %d has split %v", f, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("flow %d splits sum to %v", f, sum)
		}
	}
	return nil
}

// runLoad drives the closed loop for spec.dur and waits for every client
// to finish its last request.
func runLoad(ctx context.Context, spec loadSpec) (*loadResult, error) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		res     = &loadResult{}
		genErr  error
		wg      sync.WaitGroup
		stopped = make(chan struct{})
	)
	next.Store(int64(spec.first))
	peak := startHeapSampler(stopped)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res.start = start
	deadline := start.Add(spec.dur)
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r, err := spec.gen(i)
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					return
				}
				rctx, end := spec.spans.newTrace(ctx, "request")
				t0 := time.Now()
				a := spec.do(rctx, r)
				lat := time.Since(t0)
				end()
				bad := a.err
				if bad == nil {
					if err := validSplits(a.p, a.splits); err != nil {
						bad = err
						mu.Lock()
						res.invalid = append(res.invalid, fmt.Errorf("request %d: %w", i, err))
						mu.Unlock()
					}
				}
				mu.Lock()
				res.attempted++
				res.lat = append(res.lat, lat)
				res.done = append(res.done, time.Since(start))
				res.ok = append(res.ok, bad == nil)
				if bad != nil {
					res.failed++
				}
				if !r.ood {
					res.inProfile++
					if bad == nil && (a.tier == resilience.TierReducedRAU || a.tier == resilience.TierECMP) {
						res.degraded++
					}
				}
				if bad == nil && spec.keep(i) {
					res.kept = append(res.kept, outcome{req: r, ans: a, lat: lat})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.issued = int(next.Load())
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.gcs = after.NumGC - before.NumGC
	close(stopped)
	res.heapPeak = <-peak
	if genErr != nil {
		return nil, genErr
	}
	return res, nil
}

// startHeapSampler reads the live heap (what the last collection found
// reachable) every millisecond until stop closes, then forces one more
// collection and sends the largest value seen. The live heap is what a
// cache or a retained arena adds. The heap in use between collections
// also holds garbage whose amount depends on when the collector happens
// to run: on abilene-steady, with one or two collections per phase, that
// figure ranged from 62 to 90 MiB across seeds. runtime/metrics reads
// without stopping the world, so the sampler barely perturbs the phase.
func startHeapSampler(stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-stop:
				runtime.GC()
				read()
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// liveHeap returns the live heap after forced collections. The first
// collection moves sync.Pool contents to their victim caches, which it
// still marks live; the second frees them.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// heapMiB is the live heap b above base, in MiB.
func heapMiB(b, base uint64) float64 {
	if b < base {
		return 0
	}
	return float64(b-base) / (1 << 20)
}

// tierAnswer maps a decision to its answer; an error or a missing matrix
// leaves the answer without splits.
func tierAnswer(p *te.Problem, dec resilience.Decision) answer {
	return answer{splits: dec.Splits, tier: dec.Tier, p: p, err: dec.Err}
}
