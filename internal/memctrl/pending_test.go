package memctrl

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

// refPending is the oracle for pendingTable: the Go map the controller
// kept its in-flight reads in before the table replaced it, with the same
// prune rule and the same sorted checkpoint image.
type refPending map[uint64]pendingRead

func (m refPending) prune(now uint64) {
	for a, p := range m {
		if p.done <= now {
			delete(m, a)
		}
	}
}

func (m refPending) state() []PendingState {
	var out []PendingState
	for a, p := range m {
		out = append(out, PendingState{Addr: a, Done: p.done, Src: p.src})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// sameContents fails unless the table holds exactly the oracle's entries.
func sameContents(t *testing.T, step int, tbl *pendingTable, ref refPending) {
	t.Helper()
	if tbl.len() != len(ref) {
		t.Fatalf("step %d: len %d, oracle %d", step, tbl.len(), len(ref))
	}
	for a, want := range ref {
		if got, ok := tbl.get(a); !ok || got != want {
			t.Fatalf("step %d: get(%#x) = %+v,%v, oracle %+v", step, a, got, ok, want)
		}
	}
}

func sameState(t *testing.T, step int, tbl *pendingTable, ref refPending) {
	t.Helper()
	if got, want := tbl.state(), ref.state(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: State() differs from the oracle (%d vs %d entries)", step, len(got), len(want))
	}
}

// keysWithHome returns n line addresses whose home slot, in every table up
// to 8192 slots, is the slot whose index has top bits `top` — the same
// probe start at every size, since home is the product's top bits.
func keysWithHome(top uint64, n int) []uint64 {
	probe := pendingTable{shift: 64 - 13}
	var out []uint64
	for a := uint64(0); len(out) < n; a += mem.LineSize {
		if uint64(probe.home(a)) == top {
			out = append(out, a)
		}
	}
	return out
}

// TestPendingTableMatchesMap drives the table and the map oracle through
// the same seeded get/set/delete/prune sequence. The key pool mixes random
// lines with a cluster that all hash to one slot (long collision chains)
// and one that hashes to the last slot (chains that wrap to slot 0), so
// backward-shift deletion is exercised across the wrap. A second phase
// grows the table past the controller's prune threshold and prunes it.
func TestPendingTableMatchesMap(t *testing.T) {
	rng := sim.NewRNG(42)
	pool := append(keysWithHome(4000, 24), keysWithHome(8191, 24)...)
	for i := 0; i < 48; i++ {
		pool = append(pool, uint64(rng.Intn(1<<20))*mem.LineSize)
	}
	var tbl pendingTable
	ref := refPending{}
	now := uint64(1000)
	for step := 0; step < 40_000; step++ {
		a := pool[rng.Intn(len(pool))]
		switch op := rng.Intn(10); {
		case op < 4:
			r := pendingRead{done: now + uint64(rng.Intn(400)), src: dram.Source(rng.Intn(3))}
			tbl.set(a, r)
			ref[a] = r
		case op < 6:
			tbl.delete(a)
			delete(ref, a)
		case op < 7:
			tbl.prune(now)
			ref.prune(now)
		case op < 8:
			now += uint64(rng.Intn(200))
		}
		got, gok := tbl.get(a)
		want, wok := ref[a]
		if got != want || gok != wok {
			t.Fatalf("step %d: get(%#x) = %+v,%v, oracle %+v,%v", step, a, got, gok, want, wok)
		}
		sameContents(t, step, &tbl, ref)
		sameState(t, step, &tbl, ref)
	}

	// Past the prune threshold: the controller's trackPending schedule on
	// thousands of distinct lines with a mix of expired and live reads.
	tbl.reset()
	clear(ref)
	for step := 0; step < 3*pruneThreshold; step++ {
		a := uint64(rng.Intn(1<<16)) * mem.LineSize
		r := pendingRead{done: now + uint64(rng.Intn(3000)), src: dram.SrcPageForge}
		if tbl.len() > pruneThreshold {
			if len(ref) <= pruneThreshold {
				t.Fatalf("step %d: table len %d, oracle %d", step, tbl.len(), len(ref))
			}
			tbl.prune(now)
			ref.prune(now)
			sameState(t, step, &tbl, ref)
		}
		tbl.set(a, r)
		ref[a] = r
		if rng.Intn(8) == 0 {
			tbl.delete(a)
			delete(ref, a)
		}
		now++
		sameContents(t, step, &tbl, ref)
	}
	sameState(t, -1, &tbl, ref)
}

// TestPendingStateRoundTrip checks SetState rebuilds the same table image,
// including an empty one (whose image stays nil, as the map's did).
func TestPendingStateRoundTrip(t *testing.T) {
	c, phys, _ := newCtrl(4, false)
	if st := c.State(); st.Pending != nil {
		t.Fatalf("empty controller image has pending %v", st.Pending)
	}
	pfn := fillFrame(phys)
	for li := 0; li < mem.LinesPerPage; li++ {
		c.FetchLine(pfn, li, uint64(li*3), dram.SrcPageForge)
	}
	st := c.State()
	d, _, _ := newCtrl(4, false)
	d.SetState(st)
	if !reflect.DeepEqual(d.State(), st) {
		t.Fatal("SetState/State round trip changed the image")
	}
	d.SetState(ControllerState{})
	if d.pending.len() != 0 || d.State().Pending != nil {
		t.Fatal("restoring an empty image left entries behind")
	}
}

// TestSteadyStateFetchAllocatesNothing checks the controller's hot path
// once the in-flight table has reached its working size: PageForge
// fetches, demand reads and writes, and the prunes they trigger allocate
// nothing — with and without a (fault-free) fault model attached.
func TestSteadyStateFetchAllocatesNothing(t *testing.T) {
	for _, faults := range []bool{false, true} {
		phys := mem.New(96 * mem.PageSize)
		cfg := dram.DefaultConfig()
		cfg.WindowCycles = 1 << 62 // one bandwidth window: its map never grows
		c := New(dram.New(cfg), phys, nil)
		if faults {
			c.Faults = FaultFunc(func(addr uint64, line []byte) {})
		}
		var pfns []mem.PFN
		for i := 0; i < 80; i++ {
			pfns = append(pfns, fillFrame(phys))
		}
		now := uint64(0)
		sweep := func() {
			for _, pfn := range pfns {
				for li := 0; li < mem.LinesPerPage; li++ {
					c.FetchLine(pfn, li, now, dram.SrcPageForge)
					addr := uint64(pfn.LineAddr(li))
					c.DemandAccess(addr, now+1, false, dram.SrcCore)
					c.DemandAccess(addr, now+2, li%8 == 0, dram.SrcCore)
					now += 500
				}
			}
		}
		sweep() // grow the table to its working size
		if allocs := testing.AllocsPerRun(1, sweep); allocs != 0 {
			t.Fatalf("faults=%v: %v allocations per sweep", faults, allocs)
		}
	}
	var tbl pendingTable
	fill := func() {
		for i := uint64(0); i <= pruneThreshold; i++ {
			tbl.set(i*mem.LineSize, pendingRead{done: i % 2})
		}
		tbl.prune(1)
	}
	fill()
	if allocs := testing.AllocsPerRun(3, fill); allocs != 0 {
		t.Fatalf("fill+prune allocates %v per run", allocs)
	}
	if tbl.len() != 0 {
		t.Fatalf("prune left %d completed reads", tbl.len())
	}
}
