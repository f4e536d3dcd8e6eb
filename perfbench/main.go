// Command perfbench is the repository benchmark. It runs one workload
// in-process against the seams the CLI and the daemon use
// (experiments.Fig9/Fig10/Fig12, experiments.NewStreamer/Stream, and
// serve.New over HTTP), checks every output, and prints each metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 a separate traced run gives the per-layer metrics and
// the "where a run goes" attribution table. spec.json lists every
// metric with its unit, direction and owning layer; README.md explains
// the workloads. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload paper-summary --seed 1 --seconds 25 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

//go:embed spec.json
var specJSON []byte

// Spec is the part of spec.json the benchmark reads; the rest of the
// file documents the metrics for people.
type Spec struct {
	DefaultSeed int64                 `json:"default_seed"`
	HeldOutSeed int64                 `json:"held_out_seed"`
	Paper       map[string]paperGains `json:"paper_gains"`
	Reference   paperSummaryReference `json:"paper_summary_reference"`
}

type paperGains struct {
	Routing float64  `json:"routing"`
	COPE    *float64 `json:"cope,omitempty"`
}

// paperSummaryReference is the recorded output of the paper-summary
// reference campaign (see paperRefCycles): per topology, the mean gains,
// mean ANC BER and mean overlap.
type paperSummaryReference struct {
	Campaign  string                  `json:"campaign"`
	Tolerance float64                 `json:"tolerance"`
	Values    map[string]referenceRow `json:"values"`
}

type referenceRow struct {
	GainRouting float64  `json:"gain_over_routing"`
	GainCOPE    *float64 `json:"gain_over_cope,omitempty"`
	BER         float64  `json:"mean_ber"`
	Overlap     float64  `json:"mean_overlap"`
}

func loadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %v", err)
	}
	return &s, nil
}

// metric is one named measurement.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string // human-only annotation, e.g. which percentile a tail is
}

// outcome is what a workload run reports.
type outcome struct {
	Attempted int
	Failed    int
	Metrics   []metric
	// Report is printed before the result line (tables, failure details).
	Report strings.Builder
}

func (o *outcome) add(name, unit string, v float64) {
	o.Metrics = append(o.Metrics, metric{name, unit, v, ""})
}

func (o *outcome) addNote(name, unit string, v float64, note string) {
	o.Metrics = append(o.Metrics, metric{name, unit, v, note})
}

func (o *outcome) failf(format string, args ...any) {
	fmt.Fprintf(&o.Report, "FAIL: "+format+"\n", args...)
}

// env is what every workload receives: its generated-input seed, the
// measurement length, the worker budget and the sizes of each phase.
type env struct {
	Seed    int64
	Seconds time.Duration
	Workers int
	Start   time.Time // process start (as observed by main)
	Spec    *Spec
	OutDir  string
	Sizes   sizes
}

// sizes scales the phases of a run that do not follow the window.
type sizes struct {
	RefCycles       int     // campaign cycles of the seed-1 reference campaign
	Replays         int     // minimum repeated reference campaigns per campaign run
	SetupRepeats    int     // set-ups per run; setup_s is their median
	SimRuns         int     // seeds per sim-layer pass (traced run)
	LadderExchanges int     // reception-ladder exchanges (traced run)
	MissRate        float64 // serve-mix fresh campaigns per second
	ReplayRate      float64 // serve-mix replays per second
}

// benchSizes are the benchmark's sizes.
var benchSizes = sizes{
	RefCycles:       refCycles,
	Replays:         6,
	SetupRepeats:    5,
	SimRuns:         4,
	LadderExchanges: 96,
	MissRate:        2.16,
	ReplayRate:      20,
}

// workload is one traffic mix; README.md and spec.json say why each
// was chosen.
type workload struct {
	Name   string
	Run    func(env) (*outcome, error)
	Traced func(env) (*outcome, error)
}

var workloads = []workload{
	{"paper-summary", runPaperSummary, tracePaperSummary},
	{"dense-trace", runDenseTrace, traceDenseTrace},
	{"serve-mix", runServeMix, traceServeMix},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, time.Now(), benchSizes))
}

func run(args []string, stdout, stderr io.Writer, start time.Time, sz sizes) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-summary | dense-trace | serve-mix")
	seed := fs.Int64("seed", spec.DefaultSeed, "workload seed; every generated input derives from it")
	seconds := fs.Float64("seconds", 25, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and CPU profiles")
	history := fs.String("history", filepath.Join("perfbench", "trajectory.jsonl"), "append-only trajectory file (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have: %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || math.IsInf(*seconds, 0) || math.IsNaN(*seconds) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	e := env{
		Seed:    *seed,
		Seconds: time.Duration(*seconds * float64(time.Second)),
		Workers: runtime.NumCPU(),
		Start:   start,
		Spec:    spec,
		OutDir:  *outDir,
		Sizes:   sz,
	}
	if err := os.MkdirAll(e.OutDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	mach := machineRecord()
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.Name, e.Seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# machine: %s\n", mach)
	runFn := w.Run
	if *trace == 1 {
		runFn = w.Traced
	}
	out, err := runFn(e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprint(stdout, out.Report.String())
	if out.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: workload attempted no operation")
		return 1
	}
	fmt.Fprintf(stdout, "failed_share = %.6f (%d of %d operations)\n", float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	for _, m := range out.Metrics {
		note := ""
		if m.Note != "" {
			note = "  [" + m.Note + "]"
		}
		fmt.Fprintf(stdout, "%-32s = %-14.6g %s%s\n", m.Name, m.Value, m.Unit, note)
	}
	res := resultLine(out)
	if *history != "" {
		if err := appendTrajectory(*history, w.Name, e, *trace, mach, res, out); err != nil {
			fmt.Fprintln(stderr, "perfbench: trajectory:", err)
			return 1
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func resultLine(out *outcome) result {
	r := result{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   make(map[string]metricValue, len(out.Metrics)),
	}
	for _, m := range out.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN; a metric that could not be measured is a
			// failed check, reported as such.
			r.Correct = false
			v = 0
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return r
}
