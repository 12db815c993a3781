package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. End-to-end metrics are printed by
// untraced runs (--trace 0) and per-layer metrics by traced runs
// (--trace 1). A per-layer metric carries the end-to-end metric and
// workload it should move, so a later change knows where to look.
type metricDef struct {
	name  string
	unit  string
	layer bool
	moves string
}

// The end-to-end metrics. fail_rate, mismatch_rate and degraded_rate are
// reported as their complements (ok_rate, match_rate, undegraded_rate) so
// that no end-to-end metric reads 0 on a healthy run; the rates themselves
// are printed by the traced run under their own names.
var endToEnd = []metricDef{
	{name: "serve_p50_ms", unit: "ms"},
	{name: "serve_p95_ms", unit: "ms"},
	{name: "throughput_rps", unit: "req/s"},
	{name: "norm_mlu_p50", unit: "ratio"},
	{name: "norm_mlu_p95", unit: "ratio"},
	{name: "ok_rate", unit: "ratio"},
	{name: "match_rate", unit: "ratio"},
	{name: "undegraded_rate", unit: "ratio"},
	{name: "setup_s", unit: "s"},
	{name: "heap_peak_mb", unit: "MiB"},
	{name: "train_samples_per_s", unit: "samples/s"},
	{name: "train_val_mlu", unit: "MLU"},
}

var perLayer = []metricDef{
	{"fleet.self_ms_p50", "ms", true, "serve_p50_ms, serve_p95_ms, throughput_rps on mixed-fleet"},
	{"fleet.hedge_rate", "ratio", true, "serve_p95_ms, throughput_rps on mixed-fleet"},
	{"fleet.retry_rate", "ratio", true, "serve_p95_ms, ok_rate on mixed-fleet"},
	{"fleet.fallback_rate", "ratio", true, "ok_rate, undegraded_rate on mixed-fleet"},
	{"fleet.home_replica_rate", "ratio", true, "throughput_rps on mixed-fleet (cache and batch locality)"},

	{"resilience.serve_ms_p50", "ms", true, "serve_p50_ms on abilene-steady"},
	{"resilience.serve_ms_p95", "ms", true, "serve_p95_ms on abilene-steady"},
	{"resilience.overhead_ms_p50", "ms", true, "serve_p50_ms on abilene-steady"},
	{"resilience.cache_hit_rate", "ratio", true, "throughput_rps on mixed-fleet (about 0 by construction elsewhere)"},
	{"resilience.cache_evictions", "count", true, "throughput_rps, heap_peak_mb on mixed-fleet"},
	{"resilience.batch_size_mean", "count", true, "serve_p95_ms, throughput_rps on mixed-fleet"},
	{"resilience.queue_wait_ms_p50", "ms", true, "serve_p95_ms, throughput_rps on mixed-fleet"},
	{"resilience.linger_ms_p50", "ms", true, "serve_p95_ms, throughput_rps on mixed-fleet"},
	{"resilience.tier_full_rate", "ratio", true, "undegraded_rate on all serving workloads"},
	{"resilience.tier_cached_rate", "ratio", true, "throughput_rps on mixed-fleet"},
	{"resilience.tier_reduced_rate", "ratio", true, "undegraded_rate on all serving workloads"},
	{"resilience.tier_ecmp_rate", "ratio", true, "undegraded_rate, norm_mlu_p95 on all serving workloads"},
	{"resilience.shed_rate", "ratio", true, "ok_rate on all serving workloads"},
	{"resilience.ood_demoted_rate", "ratio", true, "undegraded_rate (intended demotions, excluded from it) on mixed-fleet"},

	{"core.context_ms_p50", "ms", true, "serve_p50_ms on kdl-churn"},
	{"core.splits_ms_p50", "ms", true, "serve_p50_ms on abilene-steady and kdl-churn"},
	{"core.splits_allocs", "count", true, "serve_p50_ms, heap_peak_mb on abilene-steady and kdl-churn"},
	{"core.splits_bytes", "B", true, "heap_peak_mb on abilene-steady and kdl-churn"},
	{"core.forward_gflops", "GFLOP/s", true, "serve_p50_ms on abilene-steady and kdl-churn (FLOPs computed from dimensions)"},
	{"core.batch1_ms", "ms", true, "throughput_rps on mixed-fleet"},
	{"core.batch8_ms_per_snapshot", "ms", true, "throughput_rps on mixed-fleet"},
	{"core.gnn_ms", "ms", true, "serve_p50_ms on abilene-steady (reusable) vs kdl-churn (not)"},
	{"core.settrans_ms", "ms", true, "serve_p50_ms on abilene-steady (reusable) vs kdl-churn (not)"},
	{"core.mlp1_ms", "ms", true, "serve_p50_ms on abilene-steady and kdl-churn"},
	{"core.rau_ms", "ms", true, "serve_p50_ms on abilene-steady and kdl-churn"},
	{"core.adjust_ms", "ms", true, "throughput_rps on mixed-fleet"},
	{"core.embed_share", "ratio", true, "serve_p50_ms on abilene-steady (reusable) vs kdl-churn (not)"},
	{"core.mismatch_entries", "count", true, "match_rate on mixed-fleet"},

	{"core.train_step_ms_p50", "ms", true, "train_samples_per_s on abilene-train"},
	{"autograd.forward_ms", "ms", true, "train_samples_per_s on abilene-train"},
	{"autograd.backward_ms", "ms", true, "train_samples_per_s on abilene-train"},
	{"autograd.allocs_per_step", "count", true, "train_samples_per_s, heap_peak_mb on abilene-train"},
	{"autograd.train_heap_mb", "MiB", true, "train_samples_per_s on abilene-train (memory training holds; not in heap_peak_mb)"},

	{"tensor.matmul_gflops", "GFLOP/s", true, "serve_p50_ms on abilene-steady and kdl-churn; train_samples_per_s on abilene-train"},
	{"tensor.csr_gflops", "GFLOP/s", true, "serve_p50_ms on kdl-churn; train_samples_per_s on abilene-train"},

	{"lp.solve_ms_p50", "ms", true, "comparator for serve_p50_ms on abilene-steady (HARP vs simplex)"},
	{"lp.mwu_share", "ratio", true, "comparator for serve_p50_ms (share of scored solves on the MWU engine)"},
	{"lp.opt_mlu_p50", "MLU", true, "norm_mlu_p50 (the loaded band the inputs sit in)"},

	{"te.ecmp_norm_mlu_p50", "ratio", true, "none: ECMP scored on the norm_mlu sample, the level a model regression falls towards"},
	{"te.problem_ms_p50", "ms", true, "serve_p50_ms on kdl-churn"},
	{"te.vet_ms_p50", "ms", true, "serve_p50_ms on kdl-churn"},

	{"tunnels.compute_s", "s", true, "setup_s on kdl-churn"},
	{"setup.first_s", "s", true, "setup_s on all workloads (the first, cold set-up of the run; setup_s is the median of all)"},

	{"runtime.gc_per_request", "count", true, "serve_p95_ms, heap_peak_mb on all workloads"},
	{"runtime.goroutines_leaked", "count", true, "serve_p95_ms, heap_peak_mb on all workloads"},
	{"runtime.inputs_heap_mb", "MiB", true, "none: live heap of the generated inputs, left out of heap_peak_mb"},

	{"wall.serve_p50_ms", "ms", true, "serve_p50_ms as wall time, not taken at the reference speed"},
	{"wall.serve_p95_ms", "ms", true, "serve_p95_ms as wall time, not taken at the reference speed"},
	{"wall.throughput_rps", "req/s", true, "throughput_rps as wall time, not taken at the reference speed"},
	{"wall.setup_s", "s", true, "setup_s as wall time, not taken at the reference speed"},
	{"host.calib_ms", "ms", true, "none: median time of the calibration kernel in the timed phase; reference calibRefMs"},

	{"trace.overhead_ratio", "ratio", true, "none: traced over untraced request p50 in this run, both at the reference speed"},
	{"trace.spans", "count", true, "none: spans recorded by the traced phase"},

	{"fail_rate", "ratio", true, "ok_rate (its complement) on all workloads"},
	{"mismatch_rate", "ratio", true, "match_rate (its complement) on all serving workloads"},
	{"degraded_rate", "ratio", true, "undegraded_rate (its complement) on all serving workloads"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects every metric a run measured, end-to-end and per-layer.
type values map[string]float64

// selectMetrics returns the metrics to print for the trace mode, with
// their units. It fails when a named metric was not measured or is not a
// finite number, so a run can never silently drop one.
func selectMetrics(v values, traced bool) (map[string]metric, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, x)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out, nil
}

// writeWallFigures prints, for people reading an untraced run, the wall
// times behind the end-to-end timings, which are reported at the
// reference speed (see calib.go).
func writeWallFigures(w io.Writer, workload string, v values) {
	fmt.Fprintf(w, "perfbench: %s: wall figures (end-to-end timings are at the reference speed):", workload)
	for _, name := range []string{"wall.serve_p50_ms", "wall.serve_p95_ms", "wall.throughput_rps", "wall.setup_s", "wall.train_samples_per_s", "host.calib_ms"} {
		fmt.Fprintf(w, " %s=%.6g", name, v[name])
	}
	fmt.Fprintln(w)
}

// writeLayerTable prints the per-layer metrics with the end-to-end metric
// each should move, for people reading a traced run.
func writeLayerTable(w io.Writer, workload string, v values) {
	fmt.Fprintf(w, "per-layer metrics for %s (metric = value unit -> moves)\n", workload)
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-32s %14.6g %-9s -> %s\n", d.name, v[d.name], d.unit, d.moves)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It returns NaN for an empty
// slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
