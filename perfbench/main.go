// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives four named workloads through the public platform.Runtime API
// (Start/Step/Metrics/Snapshot/Restore/Result) and check.RunScenario, times
// only calls into those functions, checks every run against a correctness
// gate, and prints a run manifest line followed by one JSON result line.
//
//	perfbench --workload pf_steady --seed 7 --seconds 28 --trace 0
//
// --trace 0 runs an untimed warm-up repetition, then repeats the workload
// untraced for --seconds and reports the end-to-end metrics; --trace 1
// runs a warm-up and a traced repetition plus per-layer replays and
// reports the per-layer metrics. See README.md for the workloads, the
// metric definitions and the layer → end-to-end map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// manifest identifies what a run measured, so two runs or two commits can be
// diffed mechanically: equal ConfigDigest and ResultDigest mean the same
// simulated work produced the same simulated output.
type manifest struct {
	Manifest     string `json:"manifest"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Trace        int    `json:"trace"`
	ConfigDigest string `json:"config_digest"`
	ResultDigest string `json:"result_digest"`
	Repetitions  int    `json:"repetitions"`
	StepSamples  int    `json:"measure_step_samples"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
}

// spansDir is where a traced run writes its spans, relative to the working
// directory (the repository root when run through run.sh).
const spansDir = ".bench_build/spans"

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := flag.Uint64("seed", 1, "workload seed; every workload config derives from it")
	seconds := flag.Int("seconds", 28, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	// The simulator is single-goroutine apart from the sharded scan workers;
	// pin the scheduler to the CPUs this process may use.
	runtime.GOMAXPROCS(runtime.NumCPU())

	plan := w.build(*seed)
	g := &gate{}
	budget := time.Duration(*seconds) * time.Second
	var (
		metrics map[string]metric
		sum     summary
	)
	if *trace == 0 {
		metrics, sum = measureEndToEnd(plan, budget, g)
	} else {
		var spans []span
		metrics, sum, spans = measureLayers(plan, g)
		if err := writeSpans(spansDir, *name, *seed, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}

	man := manifest{
		Manifest:     "perfbench/v1",
		Workload:     *name,
		Seed:         *seed,
		Trace:        *trace,
		ConfigDigest: plan.configDigest(),
		ResultDigest: sum.digest,
		Repetitions:  sum.reps,
		StepSamples:  sum.stepSamples,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
	}
	out := result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: metrics}
	if out.Attempted < 1 {
		out.Attempted, out.Failed, out.Correct = 1, 1, false
	}
	for _, v := range []any{man, out} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: encoding output: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return 0
}

// gate counts gated operations and their failures. A failure is reported
// on standard error and counted; it never aborts the run silently.
type gate struct {
	attempted, failed int
}

// check records one gated operation; a non-nil err counts as a failure.
func (g *gate) check(what string, err error) bool {
	g.attempted++
	if err != nil {
		g.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// digest is a short, stable hash of v's JSON encoding (JSON sorts map keys,
// so map order cannot leak into it).
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
