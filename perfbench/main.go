// Command perfbench is the repository benchmark: three workloads that
// drive the megascale, live and sim planes through their public APIs,
// check every operation against ground truth the harness computes
// itself, and print end-to-end metrics (untraced run) or per-layer
// metrics (traced run) as one JSON object on the last line of stdout.
// Run it from the repository root; run.sh builds it first and keeps the
// Go build cache inside the checkout:
//
//	bash perfbench/run.sh --workload mega-flood --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all
//
// A fourth workload, mega-dht, runs the same way but is held out of
// BENCHMARK.json: see heldOut.
//
// The self-test runs every workload at toy size: cd perfbench && go test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// traceDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const traceDir = ".bench_build/traces"

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(allWorkloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in wall seconds")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and a CPU profile")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		run, ok = heldOut[*workload]
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n",
			*workload, strings.Join(allWorkloadNames(), ", "))
		os.Exit(2)
	}
	opts := options{
		Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
		Size: fullSize,
	}
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	rep.Env.Workload = *workload
	rep.Env.Seed = *seed
	rep.Env.Traced = opts.Traced

	if opts.Traced {
		path, err := rep.Trace.writeFile(traceDir, *workload, *seed, rep.Env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# trace: %d spans written to %s\n", rep.Trace.len(), path)
	}
	if err := rep.print(os.Stdout, opts.Traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// options parameterizes one workload run.
type options struct {
	Seed    int64
	Seconds float64
	Traced  bool
	// WrongTruth makes the harness check results against a deliberately
	// wrong ground truth; the self-test uses it to prove the checks bite.
	WrongTruth bool
	Size       size
}

// size is the scale of a workload; fullSize is what the benchmark
// measures, toySize what the self-test runs.
type size struct {
	Peers       int     // megascale population
	BlockOps    int     // megascale ops issued per 60 s sim block
	LiveNodes   int     // live cluster size
	VerifyNodes int     // cluster size of the traced live verification pass
	Scale       float64 // experiments.RunConfig.Scale for sim-paper
	CodecReps   int     // frames encoded+decoded for the codec timing

	// Set-up repetitions per plane; setup_s is their median.
	MegaSetupReps, LiveSetupReps, SimSetupReps int
}

var fullSize = size{Peers: 50000, BlockOps: 2000, LiveNodes: 16, VerifyNodes: 16, Scale: 0.5,
	MegaSetupReps: 31, LiveSetupReps: 41, SimSetupReps: 4, CodecReps: 200000}

var toySize = size{Peers: 2000, BlockOps: 200, LiveNodes: 4, VerifyNodes: 4, Scale: 0.1,
	MegaSetupReps: 1, LiveSetupReps: 1, SimSetupReps: 2, CodecReps: 1000}

// workloads maps each workload of BENCHMARK.json to its runner.
var workloads = map[string]func(options) (*report, error){
	"mega-flood": func(o options) (*report, error) { return runMega(o, true) },
	"live-kad":   runLiveKad,
	"sim-paper":  runSimPaper,
}

// heldOut are workloads that run and check every op like the others
// but are not in BENCHMARK.json, because the program fails some of
// their ops. mega-dht: megascale.Iter never counts the origin as a
// candidate, so a Kademlia or Chord lookup whose origin is itself the
// answer (about 1 in 50k lookups at 50k peers) converges on the
// next-best peer and fails its ground-truth check.
var heldOut = map[string]func(options) (*report, error){
	"mega-dht": func(o options) (*report, error) { return runMega(o, false) },
}

func workloadNames() []string { return sortedNames(workloads) }

func allWorkloadNames() []string { return append(workloadNames(), sortedNames(heldOut)...) }

func sortedNames(m map[string]func(options) (*report, error)) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// env records the conditions a result was measured under.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Load describes the load generator: shard or client count and
	// whether the loop is open or closed.
	Load string `json:"load"`
	Note string `json:"note,omitempty"`
}

func newEnv(load, note string) env {
	return env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Load: load, Note: note,
	}
}

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's outcome.
type report struct {
	Env       env
	Attempted int64
	Failed    int64
	// E2E and Layer hold metric values by name; units come from the
	// definition tables.
	E2E   map[string]float64
	Layer map[string]float64
	// Extra are workload-specific end-to-end figures printed for reading
	// but not part of the result line.
	Extra []extra
	Trace *tracer
}

type extra struct {
	Name, Unit string
	Value      float64
}

func newReport(e env, tr *tracer) *report {
	return &report{Env: e, E2E: map[string]float64{}, Layer: map[string]float64{}, Trace: tr}
}

func (r *report) extra(name, unit string, v float64) {
	r.Extra = append(r.Extra, extra{name, unit, v})
}

// result builds the JSON result line: end-to-end metrics untraced,
// per-layer metrics traced. Every defined metric is present; a layer a
// workload leaves idle reads 0.
func (r *report) result(traced bool) map[string]any {
	defs, vals := endToEnd, r.E2E
	if traced {
		defs, vals = perLayer(), r.Layer
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return map[string]any{
		"correct":   r.Failed == 0 && r.Attempted > 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

func (r *report) failRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// print writes the readable lines and then the result line.
func (r *report) print(w io.Writer, traced bool) error {
	envLine, err := json.Marshal(r.Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# env: %s\n", envLine)
	fmt.Fprintf(w, "# %-34s %14d %s\n", "attempted", r.Attempted, "ops")
	fmt.Fprintf(w, "# %-34s %14.6g %s\n", "fail_ratio", r.failRatio(), "ratio")
	if traced {
		for _, d := range perLayer() {
			fmt.Fprintf(w, "# %-34s %14.6g %-6s moves %s\n", d.Name, r.Layer[d.Name], d.Unit, d.Moves)
		}
		for _, d := range heldOutLayer() {
			if v, ok := r.Layer[d.Name]; ok {
				fmt.Fprintf(w, "# %-34s %14.6g %-6s moves %s\n", d.Name, v, d.Unit, d.Moves)
			}
		}
	} else {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "# %-34s %14.6g %s\n", d.Name, r.E2E[d.Name], d.Unit)
		}
		for _, x := range r.Extra {
			fmt.Fprintf(w, "# %-34s %14.6g %s\n", x.Name, x.Value, x.Unit)
		}
	}
	line, err := json.Marshal(r.result(traced))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
