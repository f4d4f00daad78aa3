package main

import (
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/hash"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/pageforge"
	"repro/internal/platform"
	"repro/internal/snapshot"
	"repro/internal/tailbench"
)

// Replay sizes: enough operations that each ns/op is a mean over well
// over a second's worth of timer resolution, few enough that the traced
// run stays within a few seconds of replays.
const (
	replayPages      = 16000
	replayLines      = 200000
	replayCacheOps   = 400000
	replayScans      = 1500
	replayKSMPasses  = 3
	replayRepeats    = 3
	replayPhaseFrac  = 0.2
	replaySnapVer    = 1
	replayFetchStep  = 50 // cycles between replayed line requests
	replayDRAMStep   = 8
	replayWarmRegion = uint64(1) << 40
	replayColdRegion = uint64(1) << 42
)

// sink keeps replayed results live so the compiler cannot drop the calls.
var sink uint64

// layerCosts are the host costs per operation the replays measured, in
// nanoseconds unless named otherwise.
type layerCosts struct {
	buildImage, churn, phaseShift, spawnVM, killVM float64
	pageHash, samePage, comparePage                float64
	encodeLine, dramAccess, fetchLine, cacheAccess float64
	scanOne, scanOneSelf                           float64
	scanPass, ksmPerCandidate                      float64
	physState                                      float64
	encodeMBps, decodeMBps                         float64
}

// replayImage builds the image the run's Start builds: same profile, VM
// count and seed, and the arena size Runtime.Start picks, overcommitted
// arenas included.
func replayImage(spec runSpec, cfg platform.Config) (*tailbench.Image, error) {
	return tailbench.BuildImage(spec.app, cfg.VMs, arenaFrames(spec.app, cfg), cfg.Seed)
}

// arenaFrames is Runtime.Start's physical-memory sizing rule: headroom for
// the images plus churn copies, or, under an armed pressure layer with
// overcommit, guest demand divided by the overcommit ratio with the
// resident images as a floor.
func arenaFrames(app tailbench.Profile, cfg platform.Config) int {
	if cfg.Pressure.Enabled && cfg.Pressure.OvercommitRatio > 1 {
		demand := cfg.VMs * (app.PagesPerVM + app.BurstPagesPerVM)
		return max(int(float64(demand)/cfg.Pressure.OvercommitRatio)+1, cfg.VMs*app.PagesPerVM+64)
	}
	return cfg.VMs*app.PagesPerVM*2 + 1024
}

// allocatedPFNs lists up to n allocated frames in PFN order.
func allocatedPFNs(p *mem.Phys, n int) []mem.PFN {
	var pfns []mem.PFN
	for f := 0; f < p.TotalFrames() && len(pfns) < n; f++ {
		if p.Allocated(mem.PFN(f)) {
			pfns = append(pfns, mem.PFN(f))
		}
	}
	return pfns
}

// timed runs fn once inside a span and returns its duration in ns.
func timed(tr *tracer, parent int, name string, fn func()) float64 {
	runtime.GC()
	sp := tr.begin(name, parent)
	t := time.Now()
	fn()
	d := time.Since(t)
	tr.end(sp)
	return float64(d.Nanoseconds())
}

// medianTimed is the median of replayRepeats timed calls.
func medianTimed(tr *tracer, parent int, name string, fn func()) float64 {
	var xs []float64
	for i := 0; i < replayRepeats; i++ {
		xs = append(xs, timed(tr, parent, name, fn))
	}
	return median(xs)
}

// spanFetcher is a pageforge.LineFetcher that times every line fetch as a
// child span of the ScanOne call in flight.
type spanFetcher struct {
	mc     *memctrl.Controller
	tr     *tracer
	parent int
}

func (f *spanFetcher) FetchLine(pfn mem.PFN, lineIdx int, now uint64, src dram.Source) memctrl.FetchResult {
	sp := f.tr.begin("memctrl.FetchLine", f.parent)
	r := f.mc.FetchLine(pfn, lineIdx, now, src)
	f.tr.end(sp)
	return r
}

// newMemorySystem wires a fresh hierarchy, DRAM and controller over phys,
// as Runtime.Start does.
func newMemorySystem(cfg platform.Config, phys *mem.Phys) *memctrl.Controller {
	hc := cfg.Hier
	hc.Cores = cfg.Cores
	if cfg.MeasureL3.SizeBytes > 0 {
		hc.L3 = cfg.MeasureL3
	}
	hier := cache.NewHierarchy(hc)
	mc := memctrl.New(dram.New(cfg.DRAM), phys, hier)
	hier.MemAccess = func(addr uint64, write bool) uint64 {
		return mc.DemandAccess(addr, 0, write, dram.SrcCore)
	}
	return mc
}

// replayLayers drives the workload's own image through each layer's public
// functions and returns the measured per-operation costs (ScanOne's come
// from its spans, once self times are known). Runtime hides these layers;
// count × cost then estimates each one's share of step time.
func replayLayers(spec runSpec, tr *tracer, g *gate) layerCosts {
	var c layerCosts
	cfg := spec.cfg()
	root := tr.begin("perfbench.replay", -1)
	defer tr.end(root)

	var img *tailbench.Image
	var err error
	c.buildImage = medianTimed(tr, root, "tailbench.BuildImage", func() {
		img, err = replayImage(spec, cfg)
	})
	if !g.check(spec.label+": replay image", err) {
		return c
	}
	phys := img.HV.Phys
	pfns := allocatedPFNs(phys, replayPages)

	c.pageHash = timed(tr, root, "hash.PageHash", func() {
		for _, p := range pfns {
			sink += uint64(hash.PageHash(phys.Page(p)))
		}
	}) / float64(len(pfns))
	pairs := len(pfns) - 1
	c.samePage = timed(tr, root, "mem.SamePage", func() {
		for i := 0; i < pairs; i++ {
			same, n := phys.SamePage(pfns[i], pfns[i+1])
			if same {
				sink++
			}
			sink += uint64(n)
		}
	}) / float64(pairs)
	c.comparePage = timed(tr, root, "mem.ComparePage", func() {
		for i := 0; i < pairs; i++ {
			s, n := phys.ComparePage(pfns[i], pfns[i+1])
			sink += uint64(s + n)
		}
	}) / float64(pairs)

	lines := min(replayLines, len(pfns)*mem.LinesPerPage)
	c.encodeLine = timed(tr, root, "ecc.EncodeLine", func() {
		for i := 0; i < lines; i++ {
			sink += ecc.EncodeLine(phys.ReadLine(pfns[i/mem.LinesPerPage], i%mem.LinesPerPage)).Uint64()
		}
	}) / float64(lines)
	d := dram.New(cfg.DRAM)
	c.dramAccess = timed(tr, root, "dram.Access", func() {
		now := uint64(0)
		for i := 0; i < lines; i++ {
			addr := uint64(pfns[i/mem.LinesPerPage].LineAddr(i % mem.LinesPerPage))
			sink += d.Access(addr, now, false, dram.SrcPageForge)
			now += replayDRAMStep
		}
	}) / float64(lines)
	mc := newMemorySystem(cfg, phys)
	c.fetchLine = timed(tr, root, "memctrl.FetchLine", func() {
		now := uint64(0)
		for i := 0; i < lines; i++ {
			r := mc.FetchLine(pfns[i/mem.LinesPerPage], i%mem.LinesPerPage, now, dram.SrcPageForge)
			sink += r.Latency
			now += replayFetchStep
		}
	}) / float64(lines)
	c.cacheAccess = replayCache(cfg, spec.app, tr, root)

	replayPageForge(spec, cfg, tr, root, g)
	img2 := replayKSM(spec, cfg, tr, root, g, &c)
	if img2 == nil {
		return c
	}
	phys2 := img2.HV.Phys
	var st mem.PhysState
	c.physState = medianTimed(tr, root, "mem.Phys.State", func() {
		st, err = phys2.State()
	})
	if !g.check(spec.label+": replay Phys.State", err) {
		return c
	}
	var blob []byte
	enc := medianTimed(tr, root, "snapshot.Encode", func() {
		blob, err = snapshot.Encode(replaySnapVer, st)
	})
	if !g.check(spec.label+": replay snapshot.Encode", err) {
		return c
	}
	dec := medianTimed(tr, root, "snapshot.Decode", func() {
		var out mem.PhysState
		err = snapshot.Decode(blob, replaySnapVer, &out)
	})
	g.check(spec.label+": replay snapshot.Decode", err)
	mb := float64(len(blob)) / 1e6
	c.encodeMBps = mb / (enc / 1e9)
	c.decodeMBps = mb / (dec / 1e9)

	// The write side, on the merged image: churn and phase shifts break
	// merges through copy-on-write, spawns and kills move whole VMs.
	c.churn = medianTimed(tr, root, "tailbench.ChurnVolatile", func() {
		err = img2.ChurnVolatile()
	})
	g.check(spec.label+": replay ChurnVolatile", err)
	c.phaseShift = medianTimed(tr, root, "tailbench.PhaseShift", func() {
		err = img2.PhaseShift(replayPhaseFrac)
	})
	g.check(spec.label+": replay PhaseShift", err)
	var spawnNs, killNs []float64
	for i := 0; i < replayRepeats; i++ {
		var id int
		spawnNs = append(spawnNs, timed(tr, root, "tailbench.SpawnVM", func() {
			v, e := img2.SpawnVM()
			if err = e; e == nil {
				id = v.ID
			}
		}))
		if !g.check(spec.label+": replay SpawnVM", err) {
			break
		}
		killNs = append(killNs, timed(tr, root, "tailbench.KillVM", func() {
			err = img2.KillVM(id)
		}))
		if !g.check(spec.label+": replay KillVM", err) {
			break
		}
	}
	c.spawnVM, c.killVM = median(spawnNs), median(killNs)
	return c
}

// replayCache times shared-cache lookups (insert on miss) over the
// measurement phase's address mix: BaselineL3Miss of accesses go to a cold
// region, the rest to per-core warm sets.
func replayCache(cfg platform.Config, app tailbench.Profile, tr *tracer, parent int) float64 {
	l3cfg := cfg.MeasureL3
	if l3cfg.SizeBytes == 0 {
		l3cfg = cfg.Hier.L3
	}
	l3 := cache.NewCache(l3cfg)
	rng := mix(cfg.Seed, 0xCAC4E)
	addrs := make([]uint64, replayCacheOps)
	for i := range addrs {
		rng = mix(rng, uint64(i))
		core := rng % uint64(max(cfg.Cores, 1))
		if float64(rng>>11)/float64(1<<53) < app.BaselineL3Miss {
			addrs[i] = replayColdRegion + (rng>>7)%(1<<26)*mem.LineSize
		} else {
			addrs[i] = replayWarmRegion + core<<30 + (rng>>20)%1024*mem.LineSize
		}
	}
	return timed(tr, parent, "cache.Lookup", func() {
		for _, a := range addrs {
			if l3.Lookup(a) == nil {
				l3.Insert(a, cache.Exclusive)
				sink++
			}
		}
	}) / float64(len(addrs))
}

// replayPageForge runs the hardware driver over a fresh image: one untimed
// pass (the hash gate defers every first sighting, so pass one barely
// compares), then replayScans traced ScanOne calls whose line fetches are
// child spans.
func replayPageForge(spec runSpec, cfg platform.Config, tr *tracer, parent int, g *gate) {
	img, err := replayImage(spec, cfg)
	if !g.check(spec.label+": replay PageForge image", err) {
		return
	}
	f := &spanFetcher{mc: newMemorySystem(cfg, img.HV.Phys), parent: -1}
	drv := pageforge.NewDriver(ksm.NewAlgorithmSharded(img.HV, ksm.NewECCHasher(), cfg.ShardBits),
		pageforge.NewEngine(f), cfg.Driver)
	now := uint64(0)
	for i, n := 0, drv.Alg.MergeablePages(); i < n; i++ {
		_, t, ok := drv.ScanOne(now)
		if !ok {
			break
		}
		now = t
	}
	f.tr = tr
	for i := 0; i < replayScans; i++ {
		sp := tr.begin("pageforge.ScanOne", parent)
		f.parent = sp
		_, t, ok := drv.ScanOne(now)
		tr.end(sp)
		if !ok {
			break
		}
		now = t
	}
}

// replayKSM runs replayKSMPasses software scan passes over a fresh image
// the way the run scans (ScanPass across the configured workers, or the
// sequential ScanOne loop), and returns the merged image.
func replayKSM(spec runSpec, cfg platform.Config, tr *tracer, parent int, g *gate, c *layerCosts) *tailbench.Image {
	img, err := replayImage(spec, cfg)
	if !g.check(spec.label+": replay KSM image", err) {
		return nil
	}
	sc := ksm.NewScanner(ksm.NewAlgorithmSharded(img.HV, ksm.JHasher{}, cfg.ShardBits), cfg.KSMCosts)
	var passNs []float64
	var total float64
	scanned := 0
	for p := 0; p < replayKSMPasses; p++ {
		n := 0
		d := timed(tr, parent, "ksm.ScanPass", func() {
			if cfg.ShardWorkers > 0 {
				n = sc.ScanPass(cfg.ShardWorkers).Scanned
				return
			}
			for i, pages := 0, sc.Alg.MergeablePages(); i < pages; i++ {
				sc.ScanOne()
				n++
			}
		})
		passNs = append(passNs, d)
		total += d
		scanned += n
	}
	c.scanPass = median(passNs)
	if scanned > 0 {
		c.ksmPerCandidate = total / float64(scanned)
	}
	return img
}

// counters sums the named counters over the repetition's final Results.
func counters(rep *repRecord, names ...string) uint64 {
	var n uint64
	for i := range rep.runs {
		res := rep.runs[i].res
		if res == nil || res.Metrics == nil {
			continue
		}
		for _, name := range names {
			n += res.Metrics.Counters[name]
		}
	}
	return n
}

// modeCounter sums a counter over the runs in one engine mode.
func modeCounter(rep *repRecord, mode platform.Mode, name string) uint64 {
	var n uint64
	for i := range rep.runs {
		res := rep.runs[i].res
		if res != nil && res.Metrics != nil && res.Mode == mode {
			n += res.Metrics.Counters[name]
		}
	}
	return n
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// gcTotals reads the GC cycle count and cumulative stop-the-world pause.
func gcTotals() (cycles uint64, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return uint64(ms.NumGC), time.Duration(ms.PauseTotalNs)
}

// eventCounts counts the run's scheduled live events by kind.
func eventCounts(cfg platform.Config) (spawns, kills, shifts int) {
	for _, e := range cfg.Events {
		switch e.Kind {
		case platform.EvVMSpawn:
			spawns++
		case platform.EvVMKill:
			kills++
		case platform.EvPhaseChange:
			shifts++
		}
	}
	return
}

// opCounts are the exact operation counts of one repetition, read from
// the runs' final metrics and Results.
type opCounts struct {
	pfScans, pfFetches, ksmScans, l3Accesses, demandDRAM uint64
	passes, spawns, kills, shifts, checkpoints, restores int
}

// attributed is the step time, in ns, that the replayed per-operation costs
// explain for the given counts. The layers are disjoint: a PageForge scan
// splits into the engine's own work (ScanOne self time) and its line
// fetches (memctrl, which includes the SECDED encode and the DRAM access);
// DRAM is charged separately only for demand reads; every convergence pass
// churns once; checkpoints and crash restores cost what a snapshot and a
// restore cost.
func attributed(c layerCosts, n opCounts, snapshotNs, restoreNs float64) float64 {
	return float64(n.pfScans)*c.scanOneSelf +
		float64(n.pfFetches)*c.fetchLine +
		float64(n.ksmScans)*c.ksmPerCandidate +
		float64(n.l3Accesses)*c.cacheAccess +
		float64(n.demandDRAM)*c.dramAccess +
		float64(n.passes)*c.churn +
		float64(n.spawns)*c.spawnVM + float64(n.kills)*c.killVM + float64(n.shifts)*c.phaseShift +
		float64(n.checkpoints)*snapshotNs + float64(n.restores)*restoreNs
}

// share is the fraction of over (ns) that count operations of ns each take.
func share(ns float64, count uint64, over float64) float64 {
	if over <= 0 {
		return 0
	}
	return ns * float64(count) / over
}

// tracedRoundTrips bounds the warm-up's round trips in a traced run: it
// needs snapshot_ms and restore_ms, not their spread.
const tracedRoundTrips = 2

// spanPairs is how many begin/end pairs spanCost times.
const spanPairs = 200000

// spanCost is the host cost, in ns, of one span: a begin and an end on a
// tracer of its own.
func spanCost() float64 {
	tr := newTracer()
	tr.spans = make([]span, 0, spanPairs)
	runtime.GC()
	t := time.Now()
	for i := 0; i < spanPairs; i++ {
		tr.end(tr.begin("perfbench.span_cost", -1))
	}
	return float64(time.Since(t).Nanoseconds()) / spanPairs
}

// measureLayers runs a warm-up repetition and a traced one, replays the
// representative run's image through each layer, and reduces them to the
// per-layer metrics. The warm-up keeps the process's first-repetition
// costs (heap growth, page faults) out of the traced repetition and takes
// the round trips, whose Snapshot and Restore spans it records, so the
// traced repetition is a plain one with spans around its Start and Step
// calls. The tracing overhead is what those spans cost: their number times
// the measured cost of one span, over the repetition's wall time. (A wall
// time difference between a traced and an untraced repetition would mostly
// measure the host's speed drifting between them.)
func measureLayers(p plan, g *gate) (map[string]metric, summary, []span) {
	mw := newMemWatch()
	tr := newTracer()
	p.roundTrips = min(p.roundTrips, tracedRoundTrips)
	warm := runRep(p, repOpts{roundTrips: true, rtTr: tr}, mw, g)

	first := len(tr.spans)
	gc0, pause0 := gcTotals()
	root := tr.begin("perfbench.traced_repetition", -1)
	rep := runRep(p, repOpts{tr: tr, parent: root}, mw, g)
	tr.end(root)
	repSpans := len(tr.spans) - first
	gc1, pause1 := gcTotals()
	g.check(p.name+": traced repetition reproduces the warm-up's result digest", sameDigest(warm.digest, rep.digest))

	costs := replayLayers(p.runs[0], tr, g)
	self := selfTimes(tr.spans)
	by := func(name string) spanStats { return statsByName(tr.spans, self, name) }
	scanOne := by("pageforge.ScanOne")
	costs.scanOne, costs.scanOneSelf = scanOne.meanNs(), scanOne.meanSelfNs()

	start := by("platform.Start")
	conv := by("platform.Step.converge")
	measSteps := by("platform.Step.measure")
	measAll := measSteps.total + by("platform.Step.transition").total + by("platform.Step.finish").total
	stepTime := float64(conv.total + measAll)
	snap, restore := by("platform.Snapshot"), by("platform.Restore")

	pfFetches := counters(&rep, "memctrl/pf_fetches")
	dramReads := counters(&rep, "dram/reads")
	l3 := counters(&rep, "cache/l3_hits", "cache/l3_misses")
	pfScans := modeCounter(&rep, platform.PageForge, "ksm/pages_scanned")
	ksmScans := modeCounter(&rep, platform.KSM, "ksm/pages_scanned")
	demandDRAM := dramReads - min(dramReads, counters(&rep, "memctrl/pf_dram_reads"))
	merges := counters(&rep, "ksm/stable_merges", "ksm/unstable_merges", "ksm/zero_merges")
	failed := counters(&rep, "ksm/failed_merges")
	scanned := counters(&rep, "ksm/pages_scanned")
	compared := counters(&rep, "pageforge/pages_compared")
	rowHits := counters(&rep, "dram/row_hits")

	n := opCounts{pfScans: pfScans, pfFetches: pfFetches, ksmScans: ksmScans, l3Accesses: l3, demandDRAM: demandDRAM}
	for i := range rep.runs {
		r := &rep.runs[i]
		spawns, kills, shifts := eventCounts(p.runs[i].cfg())
		n.passes += len(r.conv)
		n.spawns += spawns
		n.kills += kills
		n.shifts += shifts
		if r.res != nil {
			n.checkpoints += r.res.Crash.Checkpoints
			n.restores += r.res.Crash.Restores
		}
	}
	unattributed := 0.0
	if stepTime > 0 {
		unattributed = 1 - attributed(costs, n, snap.medianNs(), restore.medianNs())/stepTime
	}
	overhead := 0.0
	if w := rep.wall(); w > 0 {
		overhead = float64(repSpans) * spanCost() / float64(w)
	}
	var blob int
	for i := range warm.runs {
		blob = max(blob, warm.runs[i].blobBytes)
	}
	violations := 0
	for i := range rep.reports {
		if rep.scenErr[i] != nil {
			violations++
		}
	}
	scen := by("check.RunScenario")

	nsToMs := func(ns float64) float64 { return ns / 1e6 }
	m := map[string]metric{
		"platform.start_ms":            {nsToMs(start.medianNs()), "ms"},
		"platform.converge_step_ms":    {nsToMs(conv.meanNs()), "ms"},
		"platform.measure_step_ms":     {nsToMs(measSteps.meanNs()), "ms"},
		"platform.snapshot_ms":         {nsToMs(snap.medianNs()), "ms"},
		"platform.restore_ms":          {nsToMs(restore.medianNs()), "ms"},
		"platform.converge_frac":       {frac(uint64(conv.total), uint64(conv.total+measAll)), "frac"},
		"platform.unattributed_frac":   {unattributed, "frac"},
		"platform.trace_overhead_frac": {overhead, "frac"},

		"ecc.encode_line_ns": {costs.encodeLine, "ns"},
		"ecc.encode_share":   {share(costs.encodeLine, pfFetches, stepTime), "frac"},

		"memctrl.fetch_line_ns":    {costs.fetchLine, "ns"},
		"memctrl.pf_fetches":       {float64(pfFetches), "count"},
		"memctrl.network_hit_frac": {frac(counters(&rep, "memctrl/pf_network_hits"), pfFetches), "frac"},
		"memctrl.coalesced_frac":   {frac(counters(&rep, "memctrl/pf_coalesced"), pfFetches), "frac"},
		"memctrl.fetch_share":      {share(costs.fetchLine, pfFetches, stepTime), "frac"},

		"dram.access_ns":    {costs.dramAccess, "ns"},
		"dram.reads":        {float64(dramReads), "count"},
		"dram.row_hit_rate": {frac(rowHits, counters(&rep, "dram/row_hits", "dram/row_misses", "dram/row_closeds")), "frac"},

		"pageforge.scan_one_us":       {costs.scanOne / 1e3, "us"},
		"pageforge.scan_one_self_us":  {costs.scanOneSelf / 1e3, "us"},
		"pageforge.pages_compared":    {float64(compared), "count"},
		"pageforge.lines_per_compare": {frac(counters(&rep, "pageforge/lines_fetched"), compared), "lines"},
		"pageforge.dup_yield":         {frac(counters(&rep, "pageforge/duplicates"), compared), "frac"},

		"cache.access_ns":     {costs.cacheAccess, "ns"},
		"cache.l3_accesses":   {float64(l3), "count"},
		"cache.l3_miss_rate":  {frac(counters(&rep, "cache/l3_misses"), l3), "frac"},
		"cache.measure_share": {share(costs.cacheAccess, l3, float64(measAll)), "frac"},

		"ksm.scan_pass_ms":       {nsToMs(costs.scanPass), "ms"},
		"ksm.ns_per_candidate":   {costs.ksmPerCandidate, "ns"},
		"ksm.pages_scanned":      {float64(scanned), "count"},
		"ksm.merge_yield":        {frac(merges, scanned), "frac"},
		"ksm.failed_merge_frac":  {frac(failed, merges+failed), "frac"},
		"ksm.hash_mismatch_frac": {frac(counters(&rep, "ksm/hash_mismatches"), scanned), "frac"},

		"mem.same_page_ns":    {costs.samePage, "ns"},
		"mem.compare_page_ns": {costs.comparePage, "ns"},
		"mem.phys_state_ms":   {nsToMs(costs.physState), "ms"},

		"hash.page_hash_ns": {costs.pageHash, "ns"},

		"snapshot.encode_mb_per_s": {costs.encodeMBps, "MB/s"},
		"snapshot.decode_mb_per_s": {costs.decodeMBps, "MB/s"},
		"snapshot.blob_mb":         {float64(blob) / 1e6, "MB"},

		"tailbench.build_image_ms": {nsToMs(costs.buildImage), "ms"},
		"tailbench.churn_ms":       {nsToMs(costs.churn), "ms"},
		"tailbench.phase_shift_ms": {nsToMs(costs.phaseShift), "ms"},
		"tailbench.spawn_vm_ms":    {nsToMs(costs.spawnVM), "ms"},
		"tailbench.kill_vm_ms":     {nsToMs(costs.killVM), "ms"},
		"vm.merges":                {float64(counters(&rep, "vm/merges")), "count"},
		"vm.unmerges":              {float64(counters(&rep, "vm/unmerges")), "count"},

		"check.scenario_ms_p50": {nsToMs(scen.medianNs()), "ms"},
		"check.violations":      {float64(violations), "count"},

		"go.gc_cycles":   {float64(gc1 - gc0), "count"},
		"go.gc_pause_ms": {float64(pause1-pause0) / 1e6, "ms"},
	}
	return m, summary{digest: rep.digest, reps: 1, stepSamples: measSteps.n}, tr.spans
}
