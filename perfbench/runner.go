package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/check"
	"repro/internal/platform"
)

// memWatch tracks the largest live heap seen at its sample points and
// reads the cumulative allocation counter.
type memWatch struct {
	samples  []metrics.Sample
	peakLive uint64
}

func newMemWatch() *memWatch {
	return &memWatch{samples: []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// sample forces a GC and records the live heap it marked. Only a forced
// GC makes the reading exact at the sample point: between GCs the runtime
// reports the heap live at whichever cycle last ran, so a peak built from
// unforced readings would depend on GC timing.
func (m *memWatch) sample() {
	runtime.GC()
	metrics.Read(m.samples)
	if v := m.samples[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > m.peakLive {
		m.peakLive = v.Uint64()
	}
}

// phaseBoundary starts a phase of a run (convergence after Start, the
// measurement intervals after the step that closes convergence) from a
// collected heap, sampling it when asked. Without it, whether a GC cycle
// left over from the previous phase overlaps a phase depends on timing,
// and on two CPUs an overlapping cycle slows a phase by up to a third.
func (m *memWatch) phaseBoundary(sampleHeap bool) {
	if sampleHeap {
		m.sample()
		return
	}
	runtime.GC()
}

// allocated reports the bytes allocated by the process so far.
func (m *memWatch) allocated() uint64 {
	metrics.Read(m.samples)
	if v := m.samples[1].Value; v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// runOpts configures one simulated run.
type runOpts struct {
	// roundTrips timed warm Snapshot/Restore round trips are taken after
	// convergence step rtAtStep (0: none).
	roundTrips int
	rtAtStep   int
	tr         *tracer // Start and Step spans; nil: untraced
	parent     int
	rtTr       *tracer // Snapshot and Restore spans; nil: untraced
	mem        *memWatch
	// sampleHeap samples the live heap after Start, after every
	// convergence pass, after the step that closes convergence and after
	// the last step.
	sampleHeap bool
	g          *gate
}

// runRecord is what one run of a runSpec measured. Every duration is a
// call into the platform API; nothing else is timed.
type runRecord struct {
	setup      time.Duration
	conv       []time.Duration // convergence-pass steps
	transition time.Duration   // closes convergence, runs the first interval
	meas       []time.Duration // the remaining measurement-interval steps
	final      time.Duration   // extracts the Result
	pagesConv  uint64          // ksm/pages_scanned when convergence closed
	res        *platform.Result

	snaps, restores []time.Duration
	blobBytes       int
}

func (r *runRecord) convTime() time.Duration { return sum(r.conv) }

func (r *runRecord) measureTime() time.Duration { return r.transition + sum(r.meas) + r.final }

// wall is Start to done, round trips excluded.
func (r *runRecord) wall() time.Duration { return r.setup + r.convTime() + r.measureTime() }

// simulate steps one run through the Runtime API to completion. The step
// that closes convergence is recognised by Result().ConvergedPasses turning
// positive (finishConverge sets it); every step before it is a convergence
// pass, every step after it a measurement interval, and the last one
// extracts the Result.
func simulate(spec runSpec, o runOpts) runRecord {
	var rec runRecord
	rt := platform.NewRuntime(spec.mode, spec.app, spec.cfg())
	runtime.GC()
	sp := o.tr.begin("platform.Start", o.parent)
	t := time.Now()
	err := rt.Start()
	rec.setup = time.Since(t)
	o.tr.end(sp)
	if !o.g.check(spec.label+": Start", err) {
		return rec
	}
	o.mem.phaseBoundary(o.sampleHeap)
	transitioned := false
	for {
		sp := o.tr.begin("platform.Step.converge", o.parent)
		t := time.Now()
		done, err := rt.Step()
		d := time.Since(t)
		o.tr.end(sp)
		if !o.g.check(fmt.Sprintf("%s: Step %d", spec.label, len(rec.conv)+len(rec.meas)), err) {
			return rec
		}
		switch {
		case done:
			rec.final = d
			o.tr.rename(sp, "platform.Step.finish")
			if o.sampleHeap {
				o.mem.sample()
			}
		case transitioned:
			rec.meas = append(rec.meas, d)
			o.tr.rename(sp, "platform.Step.measure")
		case rt.Result().ConvergedPasses > 0:
			transitioned = true
			rec.transition = d
			o.tr.rename(sp, "platform.Step.transition")
			o.mem.phaseBoundary(o.sampleHeap)
		default:
			rec.conv = append(rec.conv, d)
			rec.pagesConv = rt.Metrics().Counters["ksm/pages_scanned"]
			if o.sampleHeap {
				o.mem.sample()
			}
			if o.roundTrips > 0 && len(rec.conv) == o.rtAtStep {
				roundTrips(rt, spec.label, o, &rec)
			}
		}
		if done {
			break
		}
	}
	if o.roundTrips > 0 {
		var err error
		if len(rec.conv) < o.rtAtStep {
			err = fmt.Errorf("run converged after %d steps, round trips are planned after step %d", len(rec.conv), o.rtAtStep)
		}
		o.g.check(spec.label+": round trips taken", err)
	}
	rec.res = rt.Result()
	gateResult(spec, rec.res, o.g)
	return rec
}

// roundTrips times warm Snapshot/Restore round trips at the current pass
// boundary. The first, untimed, also checks that Snapshot → Restore →
// Snapshot reproduces the blob byte for byte. A heap sample (and so a GC)
// precedes every timed call, so no call pays for the previous one's
// garbage.
func roundTrips(rt *platform.Runtime, label string, o runOpts, rec *runRecord) {
	for i := 0; i <= o.roundTrips; i++ {
		o.mem.sample()
		sp := o.rtTr.begin("platform.Snapshot", -1)
		t := time.Now()
		blob, err := rt.Snapshot()
		ds := time.Since(t)
		o.rtTr.end(sp)
		if !o.g.check(label+": Snapshot", err) {
			return
		}
		o.mem.sample()
		sp = o.rtTr.begin("platform.Restore", -1)
		t = time.Now()
		err = rt.Restore(blob)
		dr := time.Since(t)
		o.rtTr.end(sp)
		if !o.g.check(label+": Restore", err) {
			return
		}
		if i == 0 {
			rec.blobBytes = len(blob)
			again, err := rt.Snapshot()
			if err == nil && !bytes.Equal(again, blob) {
				err = fmt.Errorf("blob changed across Snapshot → Restore → Snapshot (%d vs %d bytes)", len(blob), len(again))
			}
			o.g.check(label+": snapshot round trip identity", err)
			continue
		}
		rec.snaps = append(rec.snaps, ds)
		rec.restores = append(rec.restores, dr)
	}
}

// gateResult applies the per-run correctness checks to a finished Result.
func gateResult(spec runSpec, res *platform.Result, g *gate) {
	var err error
	if s := res.Footprint.Savings(); s <= 0 {
		err = fmt.Errorf("savings %v", s)
	}
	g.check(spec.label+": nonzero savings", err)
	if res.Crash.Enabled {
		err = nil
		c := res.Crash
		switch {
		case c.Restores != c.Crashes:
			err = fmt.Errorf("%d restores for %d crashes", c.Restores, c.Crashes)
		case c.KSMFallbacks > 0:
			err = fmt.Errorf("%d KSM fallbacks", c.KSMFallbacks)
		case schedulesCrash(spec) && c.Crashes == 0:
			err = fmt.Errorf("the scheduled crash never fired")
		}
		g.check(spec.label+": crash recovery", err)
	}
}

func schedulesCrash(spec runSpec) bool {
	for _, e := range spec.cfg().Events {
		if e.Kind == platform.EvCrash {
			return true
		}
	}
	return false
}

// repRecord is one repetition of a plan.
type repRecord struct {
	runs    []runRecord
	scen    []time.Duration // check.RunScenario calls
	reports []*check.Report
	scenErr []error
	alloc   uint64        // bytes allocated
	elapsed time.Duration // host time of the whole repetition, GCs included
	digest  string
}

func (r *repRecord) setup() time.Duration {
	var d time.Duration
	for i := range r.runs {
		d += r.runs[i].setup
	}
	return d
}

func (r *repRecord) wall() time.Duration {
	d := sum(r.scen)
	for i := range r.runs {
		d += r.runs[i].wall()
	}
	return d
}

// repOpts configures one repetition.
type repOpts struct {
	sampleHeap bool
	roundTrips bool // take the plan's round trips
	rtTr       *tracer
	tr         *tracer
	parent     int
}

// runRep runs one repetition: the verification sweep first, then every
// run of the plan.
func runRep(p plan, o repOpts, mw *memWatch, g *gate) repRecord {
	var rep repRecord
	begin := time.Now()
	before := mw.allocated()
	for i, sc := range p.scenarios {
		runtime.GC()
		sp := o.tr.begin("check.RunScenario", o.parent)
		t := time.Now()
		report, err := check.RunScenario(sc)
		d := time.Since(t)
		o.tr.end(sp)
		g.check(fmt.Sprintf("verify scenario %d (%v)", i, sc), err)
		rep.scenErr = append(rep.scenErr, err)
		rep.scen = append(rep.scen, d)
		rep.reports = append(rep.reports, report)
	}
	for i, spec := range p.runs {
		ro := runOpts{tr: o.tr, parent: o.parent, rtTr: o.rtTr, mem: mw, sampleHeap: o.sampleHeap, g: g}
		if o.roundTrips && (p.rtRuns == 0 || i < p.rtRuns) {
			ro.roundTrips, ro.rtAtStep = p.roundTrips, p.rtAtStep
		}
		rep.runs = append(rep.runs, simulate(spec, ro))
	}
	rep.alloc = mw.allocated() - before
	rep.elapsed = time.Since(begin)

	var results []*platform.Result
	for i := range rep.runs {
		results = append(results, rep.runs[i].res)
	}
	d, err := digest(struct {
		Results []*platform.Result
		Reports []*check.Report
	}{results, rep.reports})
	g.check(p.name+": result digest", err)
	rep.digest = d
	return rep
}

// summary is what the manifest reports about the measured repetitions.
type summary struct {
	digest      string
	reps        int
	stepSamples int
}

// setupSamples is how many times a run sets the workload up: setup_s is
// the median of that many summed Runtime.Start times.
const setupSamples = 9

// measureEndToEnd runs one untimed warm-up repetition, then repeats the
// plan, timed, until the budget is spent (and at least minReps times), and
// reduces the timed repetitions to the end-to-end metrics. The warm-up
// takes the process's first-repetition costs (heap growth, page faults)
// and does everything that would make a repetition unlike the others: it
// samples the live heap (a forced GC per tick) and takes the round trips
// (after which its runs continue on restored worlds). Every timed
// repetition is plain, so the timing medians compare like with like.
func measureEndToEnd(p plan, budget time.Duration, g *gate) (map[string]metric, summary) {
	mw := newMemWatch()
	start := time.Now()
	warm := runRep(p, repOpts{sampleHeap: true, roundTrips: true}, mw, g)
	logRep(p, "warm-up", &warm)
	var reps []repRecord
	for {
		rep := runRep(p, repOpts{}, mw, g)
		g.check(fmt.Sprintf("%s: repetition %d reproduces the warm-up's result digest", p.name, len(reps)),
			sameDigest(warm.digest, rep.digest))
		reps = append(reps, rep)
		logRep(p, fmt.Sprint("repetition ", len(reps)-1), &rep)
		// Stop when another repetition like this one would overrun the
		// budget, so a run ends near it rather than up to a repetition
		// past it.
		if len(reps) >= p.minReps && time.Since(start)+rep.elapsed > budget {
			break
		}
	}
	var setups []float64
	for i := range reps {
		setups = append(setups, reps[i].setup().Seconds())
	}
	for len(setups) < setupSamples {
		setups = append(setups, setupOnly(p, g).Seconds())
	}
	m := reduce(p, &warm, reps, mw)
	m["setup_s"] = metric{median(setups), "s"}
	return m, summary{digest: warm.digest, reps: len(reps), stepSamples: len(stepSamplesOf(reps))}
}

// logRep reports one repetition's phases on standard error.
func logRep(p plan, what string, rep *repRecord) {
	var conv, meas time.Duration
	var steps []int
	for j := range rep.runs {
		conv += rep.runs[j].convTime()
		meas += rep.runs[j].measureTime()
		steps = append(steps, len(rep.runs[j].conv))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: wall %.3fs (setup %.3fs, converge %.3fs, measure %.3fs, scenarios %.3fs; elapsed %.3fs; convergence steps %v)\n",
		p.name, what, rep.wall().Seconds(), rep.setup().Seconds(), conv.Seconds(), meas.Seconds(), sum(rep.scen).Seconds(), rep.elapsed.Seconds(), steps)
}

func sameDigest(want, got string) error {
	if want != got {
		return fmt.Errorf("digest %s, warm-up %s", got, want)
	}
	return nil
}

// setupOnly times Runtime.Start for every run of the plan, and nothing else.
func setupOnly(p plan, g *gate) time.Duration {
	var d time.Duration
	for _, spec := range p.runs {
		rt := platform.NewRuntime(spec.mode, spec.app, spec.cfg())
		runtime.GC()
		t := time.Now()
		err := rt.Start()
		d += time.Since(t)
		g.check(spec.label+": Start", err)
		rt.Stop()
	}
	return d
}

func stepSamplesOf(reps []repRecord) []float64 {
	var xs []float64
	for i := range reps {
		for j := range reps[i].runs {
			for _, d := range reps[i].runs[j].meas {
				xs = append(xs, ms(d))
			}
		}
	}
	return xs
}

// reduce turns the timed repetitions into the end-to-end metrics (setup_s
// aside); the round-trip times come from the warm-up.
func reduce(p plan, warm *repRecord, reps []repRecord, mw *memWatch) map[string]metric {
	var wall, alloc, convRate, measRate, perSec []float64
	var snaps, restores []float64
	for j := range warm.runs {
		snaps = append(snaps, msAll(warm.runs[j].snaps)...)
		restores = append(restores, msAll(warm.runs[j].restores)...)
	}
	for i := range reps {
		rep := &reps[i]
		wall = append(wall, rep.wall().Seconds())
		alloc = append(alloc, float64(rep.alloc)/1e6)
		var pages, cycles uint64
		var convT, measT time.Duration
		for j := range rep.runs {
			r := &rep.runs[j]
			pages += r.pagesConv
			convT += r.convTime()
			measT += r.measureTime()
			if r.res != nil {
				cycles += r.res.MeasuredCycles
			}
		}
		convRate = append(convRate, rate(float64(pages), convT))
		measRate = append(measRate, rate(float64(cycles)/1e6, measT))
		if len(rep.scen) > 0 {
			perSec = append(perSec, rate(float64(len(rep.scen)), sum(rep.scen)))
		} else {
			perSec = append(perSec, rate(float64(len(rep.runs)), rep.wall()))
		}
	}
	var savings, p99 float64
	n := 0
	for _, r := range reps[0].runs {
		if r.res != nil {
			savings += r.res.Footprint.Savings()
			p99 += r.res.DemandLatP99
			n++
		}
	}
	if n > 0 {
		savings /= float64(n)
		p99 /= float64(n)
	}
	steps := stepSamplesOf(reps)
	return map[string]metric{
		"wall_s":                {median(wall), "s"},
		"alloc_mb":              {median(alloc), "MB"},
		"heap_peak_mb":          {float64(mw.peakLive) / 1e6, "MB"},
		"converge_pages_per_s":  {median(convRate), "1/s"},
		"measure_mcycles_per_s": {median(measRate), "Mcycles/s"},
		"measure_step_ms_p50":   {quantile(steps, 0.5), "ms"},
		"measure_step_ms_p90":   {quantile(steps, 0.9), "ms"},
		"savings_frac":          {savings, "frac"},
		"demand_p99_cycles":     {p99, "cycles"},
		"checkpoint_ms":         {median(snaps), "ms"},
		"restore_ms":            {median(restores), "ms"},
		"scenarios_per_s":       {median(perSec), "1/s"},
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	var xs []float64
	for _, d := range ds {
		xs = append(xs, ms(d))
	}
	return xs
}

func rate(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
