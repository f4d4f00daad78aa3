package memctrl

import (
	"math/bits"
	"sort"
)

// pruneThreshold is the in-flight table size above which an insert first
// drops every completed read.
const pruneThreshold = 4096

// pendingSlot is one cell of the in-flight read table.
type pendingSlot struct {
	addr uint64
	read pendingRead
	used bool
}

// pendingTable maps line addresses to in-flight reads. It is an
// open-addressing hash table with linear probing and backward-shift
// deletion, so lookups, inserts, deletes and prunes allocate nothing once
// the table has grown to its working size; only growth allocates. Its
// contents are exactly those of the map[uint64]pendingRead it replaces,
// which the package tests keep as its oracle.
type pendingTable struct {
	slots []pendingSlot // len is zero or a power of two
	shift uint          // 64 - log2(len(slots))
	n     int
}

// home is the probe start for addr: Fibonacci hashing of the line number,
// taking the product's top bits.
func (t *pendingTable) home(addr uint64) int {
	return int(((addr >> 6) * 0x9E3779B97F4A7C15) >> t.shift)
}

// len reports the number of in-flight reads.
func (t *pendingTable) len() int { return t.n }

// find reports the slot holding addr, or -1.
func (t *pendingTable) find(addr uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(addr); t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].addr == addr {
			return i
		}
	}
	return -1
}

// get looks addr up.
func (t *pendingTable) get(addr uint64) (pendingRead, bool) {
	if i := t.find(addr); i >= 0 {
		return t.slots[i].read, true
	}
	return pendingRead{}, false
}

// set inserts or overwrites addr's entry, growing the table to keep its
// load at or below 3/4.
func (t *pendingTable) set(addr uint64, r pendingRead) {
	if i := t.find(addr); i >= 0 {
		t.slots[i].read = r
		return
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(addr)
	for t.slots[i].used {
		i = (i + 1) & mask
	}
	t.slots[i] = pendingSlot{addr: addr, read: r, used: true}
	t.n++
}

// grow doubles the table (16 slots when empty) and reinserts every entry.
func (t *pendingTable) grow() {
	old := t.slots
	size := 16
	if len(old) > 0 {
		size = 2 * len(old)
	}
	t.slots = make([]pendingSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if !s.used {
			continue
		}
		i := t.home(s.addr)
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// delete removes addr's entry, if any.
func (t *pendingTable) delete(addr uint64) {
	if i := t.find(addr); i >= 0 {
		t.deleteAt(i)
	}
}

// deleteAt empties slot i and shifts later members of its probe chain back
// so every remaining entry stays reachable from its home slot without
// tombstones.
func (t *pendingTable) deleteAt(i int) {
	mask := len(t.slots) - 1
	hole := i
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole only if its home does not lie
		// cyclically within (hole, j]: moving it before its home would
		// hide it from probes.
		h := t.home(t.slots[j].addr)
		if (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = pendingSlot{}
	t.n--
}

// prune drops every read completed by cycle now. It walks the slots once,
// re-examining a slot whenever a deletion shifted another entry into it;
// entries that a shift carries from the start of the array to its end are
// live and merely re-examined, so one pass removes every completed read.
func (t *pendingTable) prune(now uint64) {
	for i := 0; i < len(t.slots); i++ {
		for t.slots[i].used && t.slots[i].read.done <= now {
			t.deleteAt(i)
		}
	}
}

// reset empties the table, keeping its storage.
func (t *pendingTable) reset() {
	clear(t.slots)
	t.n = 0
}

// state lists the entries sorted by address (nil when empty).
func (t *pendingTable) state() []PendingState {
	var out []PendingState
	for _, s := range t.slots {
		if s.used {
			out = append(out, PendingState{Addr: s.addr, Done: s.read.done, Src: s.read.src})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
