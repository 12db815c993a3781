package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// runQuick runs one workload for a fraction of a second and decodes the
// result line.
func runQuick(t *testing.T, workload, trace string) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", trace,
		"--bench-dir", ".", "--out-dir", t.TempDir(),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("%s: result line lacks %q", workload, k)
		}
	}
	if len(raw) != 4 {
		t.Errorf("%s: result line has %d keys, want 4", workload, len(raw))
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestEveryMetricPrintedWithUnit runs each workload in both modes and
// checks the result line names exactly the declared metrics, each with
// its unit and a finite value.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, w := range workloadNames {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			rep := runQuick(t, w, mode.trace)
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d", w, mode.trace, rep.Correct, rep.Attempted)
			}
			if len(rep.Metrics) != len(mode.defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, mode.trace, len(rep.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				m, ok := rep.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w, mode.trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: metric %s unit %q, want %q", w, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w, d.name, m.Value)
				}
			}
			if mode.trace == "0" {
				for _, d := range endToEnd {
					if rep.Metrics[d.name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s reads 0", w, d.name)
					}
				}
			}
		}
	}
}

func abileneForTest() *te.Problem {
	g := topology.Abilene()
	return te.NewProblem(g, tunnels.Compute(g, tunnelsPerFlow))
}

// TestValidSplitsRejectsCorruption pins the benchmark's own output
// check: a uniform answer passes, and each kind of corruption fails.
func TestValidSplitsRejectsCorruption(t *testing.T) {
	p := abileneForTest()
	good := p.UniformSplits()
	if err := validSplits(p, good); err != nil {
		t.Fatalf("uniform splits rejected: %v", err)
	}
	corrupt := map[string]func(s *tensor.Dense) *tensor.Dense{
		"nil":       func(*tensor.Dense) *tensor.Dense { return nil },
		"shape":     func(s *tensor.Dense) *tensor.Dense { return tensor.New(s.Rows-1, s.Cols) },
		"nan":       func(s *tensor.Dense) *tensor.Dense { s.Data[5] = math.NaN(); return s },
		"inf":       func(s *tensor.Dense) *tensor.Dense { s.Data[5] = math.Inf(1); return s },
		"negative":  func(s *tensor.Dense) *tensor.Dense { s.Data[0], s.Data[1] = -0.25, s.Data[1]+0.5; return s },
		"row sum":   func(s *tensor.Dense) *tensor.Dense { s.Data[3] += 1e-3; return s },
		"zero rows": func(s *tensor.Dense) *tensor.Dense { s.Zero(); return s },
	}
	for name, f := range corrupt {
		if err := validSplits(p, f(good.Clone())); err == nil {
			t.Errorf("%s corruption passed the check", name)
		}
	}
}

// TestReferenceDiffFlagsPerturbation checks that an answer differing
// from the reference forward in one entry counts as a mismatch, and the
// exact answer as a match.
func TestReferenceDiffFlagsPerturbation(t *testing.T) {
	m, err := loadModel("model/harp.model")
	if err != nil {
		t.Fatal(err)
	}
	p := abileneForTest()
	in, err := newAbileneInputs(9, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := in.pool[0]
	exact := m.Splits(m.Context(p), d)
	perturbed := exact.Clone()
	perturbed.Data[7] += 1e-6
	if n := diffEntries(perturbed, exact, refTolerance); n != 1 {
		t.Fatalf("diffEntries on a one-entry perturbation = %d, want 1", n)
	}
	kept := []outcome{
		{req: &request{idx: 0, d: d}, ans: answer{splits: exact, tier: resilience.TierFull, p: p}},
		{req: &request{idx: 1, d: d}, ans: answer{splits: perturbed, tier: resilience.TierCached, p: p}},
	}
	cr := checkAndScore(kept, newRefModels(m), 2, 0)
	if cr.checked != 2 || cr.mismatched != 1 || cr.entries != 1 {
		t.Fatalf("checked %d mismatched %d entries %d, want 2, 1, 1", cr.checked, cr.mismatched, cr.entries)
	}
}

// TestPoolsDistinctUnderCacheKey asserts the premise of the cache and
// reference checks: no two generated demands share a split-cache key.
func TestPoolsDistinctUnderCacheKey(t *testing.T) {
	in, err := newAbileneInputs(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := distinctKeys(abileneForTest(), in.pool); err != nil {
		t.Fatal(err)
	}
	d := in.pool[0]
	if err := distinctKeys(abileneForTest(), []*tensor.Dense{d, d.Clone()}); err == nil {
		t.Fatal("a repeated demand passed the distinctness check")
	}
}

// TestReferenceSpeedUndoesHostSpeed checks that a request which took
// twice as long while the calibration kernel also took twice as long is
// reported at the same reference-speed latency, and that each answer
// counts towards the throughput at its own factor.
func TestReferenceSpeedUndoesHostSpeed(t *testing.T) {
	start := time.Now()
	r := &loadResult{start: start, wall: 2 * time.Second}
	host := &hostSampler{}
	// The first second at the reference speed, the second at half of it.
	for at := time.Duration(0); at < r.wall; at += samplerEvery {
		ms := calibRefMs
		if at >= time.Second {
			ms *= 2
		}
		host.samples = append(host.samples, calibSample{at: start.Add(at), ms: ms})
	}
	for _, c := range []struct{ done, lat time.Duration }{
		{500 * time.Millisecond, 10 * time.Millisecond},
		{1500 * time.Millisecond, 20 * time.Millisecond},
	} {
		r.lat, r.done, r.ok = append(r.lat, c.lat), append(r.done, c.done), append(r.ok, true)
	}
	ref, wall, _ := phaseTimes([]*loadResult{r}, host)
	if math.Abs(ref.p50-10) > 1e-9 || math.Abs(ref.p95-10) > 1e-9 {
		t.Errorf("reference-speed latency p50 %v p95 %v, want 10 ms both", ref.p50, ref.p95)
	}
	if math.Abs(wall.p50-15) > 1e-9 {
		t.Errorf("wall p50 %v, want 15 ms", wall.p50)
	}
	// 1 answer at factor 1 and 1 at factor 1/2 count as 3 over 2 s.
	if math.Abs(ref.rps-1.5) > 1e-9 || math.Abs(wall.rps-1) > 1e-9 {
		t.Errorf("throughput ref %v wall %v, want 1.5 and 1", ref.rps, wall.rps)
	}
}

// TestHostSamplerStops checks that the samplers take samples on every CPU
// and that close ends them.
func TestHostSamplerStops(t *testing.T) {
	before := runtime.NumGoroutine()
	h := startHostSampler()
	time.Sleep(5 * samplerEvery)
	h.close()
	if n := len(h.samples); n < len(allowedCPUs()) {
		t.Errorf("%d samples from %d CPUs", n, len(allowedCPUs()))
	}
	if ms := h.kernelMs(time.Now().Add(-time.Second), time.Now()); ms <= 0 {
		t.Errorf("kernel time %v", ms)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after close, %d before", after, before)
	}
}
