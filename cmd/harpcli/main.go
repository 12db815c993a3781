// Command harpcli trains, saves, loads and evaluates HARP models from the
// command line.
//
// Subcommands:
//
//	train -topo geant|abilene|anonnet [-k N] [-tms N] [-epochs N] [-out model.gob]
//	      [-checkpoint ck.harp] [-resume]
//	    Train on synthetic traffic over the chosen topology and report
//	    NormMLU on a held-out test set; optionally save the model.
//	    -checkpoint writes an atomic, CRC-checksummed training checkpoint
//	    after every epoch; -resume continues a killed run from it
//	    bit-identically.
//
//	eval -model model.gob -topo geant|abilene [-k N] [-tms N] [-fail u,v]
//	    Load a model and evaluate NormMLU, optionally under a link failure.
//
// train and eval also accept -cpuprofile/-memprofile to write pprof
// profiles of the run (see the Performance section of the README), plus
// telemetry flags:
//
//	-metrics-addr host:port
//	    Serve the observability admin endpoint while the command runs:
//	    Prometheus text on /metrics, expvar on /debug/vars, and pprof on
//	    /debug/pprof/. Training publishes loss/val-MLU gauges and guard
//	    counters; eval publishes per-stage forward-pass histograms.
//	-log-json (train only)
//	    Replace the human-readable per-epoch progress lines with one
//	    structured JSON record per epoch on stderr.
//
// -cpuprofile and /debug/pprof/profile both drive the single process-wide
// CPU profiler, so a live profile request will fail while -cpuprofile is
// active; use one or the other. Heap, goroutine and trace endpoints are
// unaffected.
//
//	info -model model.gob
//	    Print the model configuration and parameter count.
//
//	search -topo geant|abilene [-k N] [-tms N] [-epochs N] [-full]
//	    Run the Appendix-A.2 hyperparameter grid search and print the
//	    per-combination validation MLU leaderboard.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"harpte/internal/tensor"

	"harpte/internal/core"
	"harpte/internal/experiments"
	"harpte/internal/lp"
	"harpte/internal/obs"
	"harpte/internal/te"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		cmdTrain(os.Args[2:])
	case "eval":
		cmdEval(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "search":
		cmdSearch(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: harpcli <train|eval|info|search> [flags]")
	os.Exit(2)
}

// buildTopologyOrFile loads a topology from -topofile when given, else by
// name.
func buildTopologyOrFile(name, file string, seed int64) *topology.Graph {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		g, err := topology.Parse(f)
		if err != nil {
			fatal(err)
		}
		return g
	}
	return buildTopology(name, seed)
}

func buildTopology(name string, seed int64) *topology.Graph {
	switch strings.ToLower(name) {
	case "abilene":
		return topology.Abilene()
	case "geant":
		return topology.Geant()
	case "anonnet":
		return topology.RandomConnected("AnonNet", 24, 3.5, []float64{40, 100, 400}, seed)
	case "uscarrier":
		return topology.UsCarrierScale(seed)
	case "kdl":
		return topology.KDLScale(seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", name)
		os.Exit(2)
		return nil
	}
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	topoName := fs.String("topo", "abilene", "topology: abilene, geant, anonnet, uscarrier, kdl")
	topoFile := fs.String("topofile", "", "load the topology from this file instead (see internal/topology.Parse)")
	tmFile := fs.String("tmfile", "", "load traffic matrices from this file instead of generating them")
	k := fs.Int("k", 4, "tunnels per flow")
	numTMs := fs.Int("tms", 40, "number of synthetic traffic matrices")
	epochs := fs.Int("epochs", 25, "training epochs")
	lr := fs.Float64("lr", 2e-3, "learning rate")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 1, "data-parallel training workers (>1 trades exact reproducibility for speed)")
	out := fs.String("out", "", "save trained model to this path")
	ckpt := fs.String("checkpoint", "", "write an atomic training checkpoint to this path after every epoch")
	resume := fs.Bool("resume", false, "resume from -checkpoint if it exists (continues bit-identically)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this host:port while training")
	logJSON := fs.Bool("log-json", false, "emit one structured JSON record per epoch on stderr instead of progress lines")
	mustParse(fs, args)
	if *resume && *ckpt == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	defer startProfiles(*cpuProf, *memProf)()
	reg, stopAdmin := startAdmin(*metricsAddr)
	defer stopAdmin()

	g := buildTopologyOrFile(*topoName, *topoFile, *seed)
	set := tunnels.Compute(g, *k)
	p := te.NewProblem(g, set)
	fmt.Printf("topology %s: %d nodes, %d directed links, %d flows, %d tunnels\n",
		g.Name, g.NumNodes, g.NumEdges(), p.NumFlows(), set.NumTunnels())

	tms := loadOrGenerateTMs(*tmFile, g, set, *numTMs, *seed)
	var instances []*experiments.Instance
	for _, tm := range tms {
		instances = append(instances, &experiments.Instance{
			Problem: p, Demand: traffic.DemandVector(tm, set.Flows),
		})
	}
	trainIdx, valIdx, testIdx := experiments.SplitTrainValTest(len(instances))
	pick := func(idx []int) []*experiments.Instance {
		o := make([]*experiments.Instance, len(idx))
		for i, j := range idx {
			o[i] = instances[j]
		}
		return o
	}
	trainI, valI, testI := pick(trainIdx), pick(valIdx), pick(testIdx)

	m := core.New(core.DefaultConfig())
	fmt.Printf("HARP model: %d parameters\n", m.NumParams())
	tc := core.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.LR = *lr
	tc.Workers = *workers
	tc.Log = os.Stdout
	tc.CheckpointPath = *ckpt
	tc.CheckpointEvery = 1
	tc.Resume = *resume
	if reg != nil {
		m.EnableTelemetry(reg)
		tc.Metrics = reg
	}
	if *logJSON {
		tc.Log = nil
		tc.Logger = obs.NewLogger(os.Stderr, true)
	}
	// Surface flag mistakes (negative epochs, workers > batch, resume
	// without a checkpoint path) before any expensive sample building.
	if err := tc.Validate(); err != nil {
		fatal(err)
	}
	res, err := m.FitCheckpointed(experiments.HarpSamples(m, trainI), experiments.HarpSamples(m, valI), tc)
	if err != nil {
		fatal(err)
	}
	if res.ResumedAtEpoch > 0 {
		fmt.Printf("resumed from checkpoint at epoch %d\n", res.ResumedAtEpoch)
	}
	if res.SkippedBatches > 0 {
		fmt.Printf("health guard: skipped %d poisoned batches, %d snapshot restores\n",
			res.SkippedBatches, res.GuardRestores)
	}
	fmt.Printf("best validation MLU: %.4f after %d epochs\n", res.BestValMLU, res.Epochs)

	experiments.ComputeOptimal(testI)
	norm := experiments.EvalHarp(m, testI, experiments.HarpSamples(m, testI))
	d := experiments.NewDistribution(norm)
	fmt.Printf("test NormMLU: %s\n", d.CDFRow())

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := m.Save(f); err != nil {
			fatal(err)
		}
		fmt.Printf("model saved to %s\n", *out)
	}
}

func cmdEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	modelPath := fs.String("model", "", "path to a model saved by train")
	topoName := fs.String("topo", "abilene", "topology")
	k := fs.Int("k", 4, "tunnels per flow")
	numTMs := fs.Int("tms", 10, "number of test traffic matrices")
	seed := fs.Int64("seed", 99, "seed (use a different seed than training)")
	failLink := fs.String("fail", "", "fail the undirected link u,v before evaluating")
	report := fs.Bool("report", false, "print the operator what-if report for the first matrix")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this host:port during the run")
	mustParse(fs, args)
	if *modelPath == "" {
		fatal(fmt.Errorf("eval requires -model"))
	}
	defer startProfiles(*cpuProf, *memProf)()
	reg, stopAdmin := startAdmin(*metricsAddr)
	defer stopAdmin()
	f, err := os.Open(*modelPath)
	if err != nil {
		fatal(err)
	}
	m, err := core.Load(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if reg != nil {
		m.EnableTelemetry(reg)
	}

	g := buildTopology(*topoName, *seed)
	set := tunnels.Compute(g, *k)
	if *failLink != "" {
		parts := strings.Split(*failLink, ",")
		if len(parts) != 2 {
			fatal(fmt.Errorf("-fail wants u,v"))
		}
		u, err1 := strconv.Atoi(parts[0])
		v, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			fatal(fmt.Errorf("-fail wants integer node ids"))
		}
		// The link id comes straight from user input: fail with a message,
		// not a panic, when it does not exist.
		g, err = g.WithFailedLinkErr(u, v)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("failed link %d<->%d\n", u, v)
	}
	p := te.NewProblem(g, set)
	ctx := m.Context(p)

	tms := experiments.SyntheticTMs(g, set, *numTMs, *seed)
	var norms []float64
	for _, tm := range tms {
		d := traffic.DemandVector(tm, set.Flows)
		opt := lp.Solve(p, d)
		mlu := p.MLU(m.Splits(ctx, d), d)
		norms = append(norms, te.NormMLU(mlu, opt.MLU))
	}
	fmt.Printf("NormMLU over %d matrices: %s\n", len(norms),
		experiments.NewDistribution(norms).CDFRow())

	if *report {
		d := traffic.DemandVector(tms[0], set.Flows)
		fmt.Println()
		if err := p.WriteReport(os.Stdout, m.Splits(ctx, d), d, 6); err != nil {
			fatal(err)
		}
	}
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	modelPath := fs.String("model", "", "path to a saved model")
	mustParse(fs, args)
	if *modelPath == "" {
		fatal(fmt.Errorf("info requires -model"))
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("config: %+v\n", m.Cfg)
	fmt.Printf("parameters: %d\n", m.NumParams())
}

// startProfiles begins CPU profiling (when cpu is non-empty) and returns a
// function that stops it and writes a heap profile (when mem is non-empty).
// Callers defer the result, so profiles are flushed on the normal return
// path; fatal() exits the process and loses in-flight profiles, same as any
// crash would.
func startProfiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}
	}
}

// startAdmin starts the observability admin endpoint on addr and returns
// the registry behind it (runtime gauges pre-registered) plus a shutdown
// function. An empty addr disables telemetry: the registry is nil and all
// instrumentation stays on its zero-overhead path.
func startAdmin(addr string) (*obs.Registry, func()) {
	if addr == "" {
		return nil, func() {}
	}
	reg := obs.NewRegistry()
	core.RegisterRuntimeGauges(reg)
	obs.RegisterBuildInfo(reg, obs.L("component", "harpcli"))
	admin, err := obs.ServeAdmin(addr, reg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (expvar and pprof under /debug/)\n", admin.Addr())
	return reg, func() { admin.Close() }
}

func mustParse(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harpcli:", err)
	os.Exit(1)
}

// loadOrGenerateTMs reads matrices from path when given, else synthesizes.
func loadOrGenerateTMs(path string, g *topology.Graph, set *tunnels.Set, n int, seed int64) []*tensor.Dense {
	if path == "" {
		return experiments.SyntheticTMs(g, set, n, seed)
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tms, err := traffic.ParseTMs(f)
	if err != nil {
		fatal(err)
	}
	for i, tm := range tms {
		if tm.Rows != g.NumNodes {
			fatal(fmt.Errorf("matrix %d is %dx%d but the topology has %d nodes", i, tm.Rows, tm.Cols, g.NumNodes))
		}
	}
	return tms
}

func cmdSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	topoName := fs.String("topo", "abilene", "topology")
	k := fs.Int("k", 4, "tunnels per flow")
	numTMs := fs.Int("tms", 32, "number of synthetic traffic matrices")
	epochs := fs.Int("epochs", 15, "training epochs per grid point")
	seed := fs.Int64("seed", 1, "seed")
	full := fs.Bool("full", false, "search the paper's full 144-point grid (slow)")
	out := fs.String("out", "", "save the winning model to this path")
	mustParse(fs, args)

	g := buildTopology(*topoName, *seed)
	set := tunnels.Compute(g, *k)
	p := te.NewProblem(g, set)
	tms := experiments.SyntheticTMs(g, set, *numTMs, *seed)
	var instances []*experiments.Instance
	for _, tm := range tms {
		instances = append(instances, &experiments.Instance{
			Problem: p, Demand: traffic.DemandVector(tm, set.Flows),
		})
	}
	trainIdx, valIdx, _ := experiments.SplitTrainValTest(len(instances))
	pick := func(idx []int) []*experiments.Instance {
		o := make([]*experiments.Instance, len(idx))
		for i, j := range idx {
			o[i] = instances[j]
		}
		return o
	}
	base := core.DefaultConfig()
	base.Seed = *seed
	scaffold := core.New(base)
	trainS := experiments.HarpSamples(scaffold, pick(trainIdx))
	valS := experiments.HarpSamples(scaffold, pick(valIdx))

	grid := core.SmallGrid()
	if *full {
		grid = core.DefaultGrid()
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.Seed = *seed
	if err := tc.Validate(); err != nil {
		fatal(err)
	}
	fmt.Printf("searching %s on %s (%d flows)...\n",
		gridLabel(*full), g.Name, p.NumFlows())
	best, results, err := core.GridSearch(grid, base, tc, trainS, valS)
	if err != nil {
		fatal(err)
	}
	fmt.Println("rank  val-MLU  gnn  settrans  rau  lr      batch  params")
	for i, r := range results {
		fmt.Printf("%4d  %.4f   %d    %d         %-3d  %.0e  %-5d  %d\n",
			i+1, r.ValMLU, r.Config.GNNLayers, r.Config.SetTransLayers,
			r.Config.RAUIterations, r.LR, r.BatchSize, r.ParamCount)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := best.Save(f); err != nil {
			fatal(err)
		}
		fmt.Printf("winning model saved to %s\n", *out)
	}
}

func gridLabel(full bool) string {
	if full {
		return "the paper's 144-point grid"
	}
	return "the 8-point quick grid"
}
