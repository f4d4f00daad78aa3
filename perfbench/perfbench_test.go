package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"

	"repro/internal/platform"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests compare against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return s
}

// toy shrinks a plan to a few seconds of work: small images, a short
// measurement phase, two runs at most (one scenario for the sweep). The
// burst region keeps its size, so churn_ckpt's storm still writes on every
// pass and the run still reaches its crash.
func toy(p plan) plan {
	if len(p.scenarios) > 0 {
		p.scenarios = p.scenarios[:1]
	}
	if len(p.runs) > 2 {
		p.runs = p.runs[:2]
	}
	for i := range p.runs {
		spec := &p.runs[i]
		spec.app.PagesPerVM = min(spec.app.PagesPerVM, 128)
		inner := spec.cfg
		spec.cfg = func() platform.Config {
			c := inner()
			c.MeasureIntervals = min(c.MeasureIntervals, 3)
			return c
		}
	}
	p.minReps = 2
	p.roundTrips = min(p.roundTrips, 2)
	return p
}

func names[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsPassGateAtToyScale runs every workload, end to end and
// traced, at toy scale: no gated operation may fail, and each mode must
// report exactly the metrics BENCHMARK.json lists for it.
func TestWorkloadsPassGateAtToyScale(t *testing.T) {
	spec := loadSpec(t)
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		def, ok := lookupWorkload(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not defined in perfbench", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			p := toy(def.build(7))
			g := &gate{}
			m, sum := measureEndToEnd(p, 0, g)
			if g.failed != 0 || g.attempted == 0 {
				t.Fatalf("end-to-end gate: %d of %d operations failed", g.failed, g.attempted)
			}
			if got := names(m); !equal(got, e2e) {
				t.Fatalf("end-to-end metrics %v, BENCHMARK.json lists %v", got, e2e)
			}
			for k, v := range m {
				if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive finite value", k, v.Value)
				}
			}

			g = &gate{}
			lm, lsum, spans := measureLayers(p, g)
			if g.failed != 0 || g.attempted == 0 {
				t.Fatalf("traced gate: %d of %d operations failed", g.failed, g.attempted)
			}
			if got := names(lm); !equal(got, layers) {
				t.Fatalf("per-layer metrics %v, BENCHMARK.json lists %v", got, layers)
			}
			if lsum.digest != sum.digest {
				t.Errorf("traced result digest %s, untraced %s", lsum.digest, sum.digest)
			}
			if len(spans) == 0 {
				t.Errorf("traced run recorded no spans")
			}
			if (p.name == "ksm_sharded" || p.name == "churn_ckpt") && lm["memctrl.pf_fetches"].Value != 0 {
				t.Errorf("%s: memctrl.pf_fetches = %v, want 0", p.name, lm["memctrl.pf_fetches"].Value)
			}
		})
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelfTimeNestedAndOverlapping pins self time against a hand-computed
// fixture: overlapping children count once, a grandchild only reduces its
// own parent, and a child sticking out of its parent counts only inside it.
func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // ends after root
		{Name: "a1", Start: 12, End: 15, Parent: 1}, // nested in a
		{Name: "d", Start: 60, End: 60, Parent: 0},  // empty
	}
	want := []int64{
		100 - (50 - 10) - (100 - 90),
		20 - 3,
		30,
		30,
		3,
		0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	st := statsByName(spans, got, "a")
	if st.n != 1 || st.meanNs() != 20 || st.meanSelfNs() != 17 {
		t.Errorf("stats(a) = %+v", st)
	}
}

// TestAttributionCountTimesCost pins the count × ns/op attribution on a
// fixed fixture.
func TestAttributionCountTimesCost(t *testing.T) {
	c := layerCosts{
		scanOneSelf: 1000, fetchLine: 300, ksmPerCandidate: 2000,
		cacheAccess: 20, dramAccess: 40, churn: 5e6,
		spawnVM: 1e6, killVM: 2e5, phaseShift: 3e5,
		encodeLine: 150, // nested in fetchLine: never added on its own
	}
	n := opCounts{
		pfScans: 10, pfFetches: 100, ksmScans: 3, l3Accesses: 1000, demandDRAM: 50,
		passes: 2, spawns: 1, kills: 2, shifts: 1, checkpoints: 4, restores: 1,
	}
	want := 10*1000.0 + 100*300 + 3*2000 + 1000*20 + 50*40 + 2*5e6 + 1e6 + 2*2e5 + 3e5 + 4*7e6 + 9e6
	if got := attributed(c, n, 7e6, 9e6); got != want {
		t.Errorf("attributed = %v, want %v", got, want)
	}
	if got := share(150, 100, 60000); got != 0.25 {
		t.Errorf("share = %v, want 0.25", got)
	}
	if got := share(150, 100, 0); got != 0 {
		t.Errorf("share over zero time = %v, want 0", got)
	}
}

// TestReplayArenaMatchesStart checks that the replays size their arena as
// Runtime.Start does, on the sweep's overcommitted runs, where the sizing
// rule differs from the default: the frame count a pressured run reports
// must equal arenaFrames.
func TestReplayArenaMatchesStart(t *testing.T) {
	pressured := 0
	for _, spec := range verifySweep(7).runs {
		cfg := spec.cfg()
		if !cfg.Pressure.Enabled || cfg.Pressure.OvercommitRatio <= 1 {
			continue
		}
		pressured++
		rt := platform.NewRuntime(spec.mode, spec.app, cfg)
		if err := rt.Start(); err != nil {
			t.Fatalf("%s: Start: %v", spec.label, err)
		}
		for {
			done, err := rt.Step()
			if err != nil {
				t.Fatalf("%s: Step: %v", spec.label, err)
			}
			if done {
				break
			}
		}
		if got, want := rt.Result().Pressure.TotalFrames, arenaFrames(spec.app, cfg); got != want {
			t.Errorf("%s: Start built %d frames, arenaFrames gives %d", spec.label, got, want)
		}
	}
	if pressured == 0 {
		t.Fatalf("the sweep has no overcommitted run to check")
	}
}

// TestMetricNames checks every name and unit BENCHMARK.json declares, and
// that every bound stays within the benchmark contract.
func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	spec := loadSpec(t)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("bad metric name %q", n)
		}
		if !unit.MatchString(u) {
			t.Errorf("bad unit %q for %s", u, n)
		}
		if seen[n] {
			t.Errorf("metric %q declared twice", n)
		}
		seen[n] = true
	}
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s = %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("bad workload name %q", w.Name)
		}
	}
}

// TestPlansDeriveFromSeed checks that a plan is a function of its seed.
func TestPlansDeriveFromSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.build(3).configDigest(), w.build(3).configDigest(), w.build(4).configDigest()
		if a != b {
			t.Errorf("%s: same seed, config digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 give the same config digest %s", w.name, a)
		}
	}
}

// TestQuantile pins the interpolating quantile used for every median and
// percentile.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Errorf("quantile of nothing is not 0")
	}
}
