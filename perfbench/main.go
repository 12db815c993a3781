// Command perfbench is the repository benchmark. It drives four seeded
// workloads through the public entry points of the fleet, resilience,
// core, te, lp and tunnels packages, checks every answer, and prints one
// JSON result line: end-to-end metrics when untraced, per-layer metrics
// when traced. See NOTES.md for what each workload and metric is for.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload abilene-steady --seed 1 --seconds 20 --trace 0
//
// The committed serving model is produced once with
//
//	python3 perfbench/run.py --train-model
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs one invocation and returns the exit code: 0 when every
// output check passed, 1 when a check failed (the result line is still
// printed, with "correct": false), 2 when the run could not complete.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	benchDir := fs.String("bench-dir", "perfbench", "benchmark directory (holds model/)")
	outDir := fs.String("out-dir", ".bench_build", "where a traced run writes its spans")
	train := fs.Bool("train-model", false, "train the committed serving model into <bench-dir>/model and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	modelPath := filepath.Join(*benchDir, "model", "harp.model")
	if *train {
		if err := trainModel(modelPath, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rc := runCfg{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		traced:    *trace == 1,
		modelPath: modelPath,
		traceDir:  filepath.Join(*outDir, "traces"),
		log:       stderr,
	}
	rc.host = startHostSampler()
	out, err := run(rc)
	rc.host.close()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", rc.workload, err)
		return 2
	}
	ms, err := selectMetrics(out.v, rc.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", rc.workload, err)
		return 2
	}
	if rc.traced {
		writeLayerTable(stderr, rc.workload, out.v)
	} else {
		writeWallFigures(stderr, rc.workload, out.v)
	}
	for _, e := range out.invalid {
		fmt.Fprintf(stderr, "perfbench: invalid answer: %v\n", e)
	}
	rep := report{
		Correct:   len(out.invalid) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   ms,
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
