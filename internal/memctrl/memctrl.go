// Package memctrl models the memory controller of Figure 3: read/write
// request paths with the ECC encode/decode engine on the data path, request
// coalescing between demand traffic and PageForge traffic, and the line
// fetch service the PageForge module uses ("issue each request to the
// on-chip network first; otherwise place it in the Read Request Buffer").
package memctrl

import (
	"bytes"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/mem"
)

// Stats counts controller activity.
type Stats struct {
	DemandReads      uint64
	DemandWrites     uint64
	PFFetches        uint64 // PageForge line fetches requested
	PFNetworkHits    uint64 // serviced by the on-chip network (caches)
	PFDRAMReads      uint64 // serviced by the local DRAM
	PFCoalesced      uint64 // PageForge fetches folded into an in-flight read
	DemandCoalesced  uint64 // demand reads folded into an in-flight read
	ECCEncodes       uint64 // modeled line encodes (writes + network-serviced fetches)
	ECCDecodes       uint64 // lines decoded (DRAM reads)
	ECCCorrected     uint64
	ECCUncorrectable uint64
}

// pendingRead is one in-flight read: its completion cycle and the source
// that issued it, so coalescing can be attributed to the right side.
type pendingRead struct {
	done uint64
	src  dram.Source
}

// FaultModel corrupts line data arriving from the DRAM array before the
// controller's ECC decoder sees it. Implementations must be deterministic
// for a deterministic access sequence (the RAS experiments depend on it).
// Rewrite tells the model a line was re-encoded and written back — a
// demand write or a patrol-scrub repair — clearing accumulated soft
// errors; hard faults survive it. faults.Model is the production
// implementation; FaultFunc adapts ad-hoc test closures.
type FaultModel interface {
	Corrupt(addr, now uint64, line []byte)
	Rewrite(addr, now uint64)
}

// FaultFunc adapts a plain corruption closure (the old FaultInject test
// hook) to the FaultModel interface; rewrites are ignored.
type FaultFunc func(addr uint64, line []byte)

// Corrupt applies the closure.
func (f FaultFunc) Corrupt(addr, now uint64, line []byte) { f(addr, line) }

// Rewrite is a no-op: closure-injected faults carry no array state.
func (f FaultFunc) Rewrite(addr, now uint64) {}

// Controller is one memory controller. The platform instantiates two and
// places the PageForge module in one of them (Figure 5).
type Controller struct {
	DRAM *dram.DRAM
	Phys *mem.Phys
	// Hier, when set, is probed for cached copies before going to DRAM on
	// PageForge fetches. Demand traffic arrives *from* the hierarchy, so it
	// never probes.
	Hier *cache.Hierarchy
	// NetworkLatency is the round-trip cost of a network-serviced fetch.
	NetworkLatency uint64
	// Faults, when set, corrupts line data fetched from the DIMM before
	// ECC decoding (the RAS layer's DRAM fault model).
	Faults FaultModel

	Stats   Stats
	pending pendingTable // line addr -> in-flight read
	// raw receives a DIMM read for the fault model to corrupt; reused
	// across reads so a fault-free line costs no allocation.
	raw [ecc.LineSize]byte
}

// New wires a controller over a DRAM model and backing store.
func New(d *dram.DRAM, phys *mem.Phys, hier *cache.Hierarchy) *Controller {
	return &Controller{
		DRAM:           d,
		Phys:           phys,
		Hier:           hier,
		NetworkLatency: 40, // bus + L3 tag + transfer on the 512b bus
	}
}

// DemandAccess services a cache-hierarchy fill or write-back at cycle now
// and returns its latency. Reads coalesce with any in-flight read for the
// same line — PageForge-issued (Section 3.2.2) or earlier demand traffic —
// counted under Stats.DemandCoalesced; writes invalidate the pending entry
// so later reads cannot fold into a pre-write completion window. src
// attributes the DRAM traffic: core demand, or the software KSM kthread
// streaming pages through the caches.
func (c *Controller) DemandAccess(addr uint64, now uint64, write bool, src dram.Source) uint64 {
	lineAddr := addr &^ uint64(mem.LineSize-1)
	if write {
		c.Stats.DemandWrites++
		c.Stats.ECCEncodes++
		// The write supersedes any in-flight read for this line: a later
		// read must not coalesce into the pre-write read's completion
		// window and observe stale data timing.
		c.pending.delete(lineAddr)
		if c.Faults != nil {
			// A write re-encodes the line: accumulated soft errors in the
			// array are overwritten along with the data.
			c.Faults.Rewrite(lineAddr, now)
		}
		return c.DRAM.Access(lineAddr, now, true, src)
	}
	c.Stats.DemandReads++
	if p, ok := c.pending.get(lineAddr); ok && p.done > now {
		c.Stats.DemandCoalesced++
		return p.done - now
	}
	c.Stats.ECCDecodes++
	lat := c.DRAM.Access(lineAddr, now, false, src)
	c.trackPending(lineAddr, now, now+lat, src)
	return lat
}

// FetchResult describes a PageForge line fetch.
type FetchResult struct {
	Data []byte
	// Clean is the line as stored in the array, before fault injection and
	// correction (nil when Poisoned); Code() is the ECC code stored with it.
	Clean   *[ecc.LineSize]byte
	Latency uint64
	// FromNetwork reports whether a cache supplied the line; the ECC code
	// was then produced by the controller's encoder rather than the DIMM.
	FromNetwork bool
	// Poisoned reports an uncorrectable ECC error: Data is the raw
	// corrupted read, Code() is zero, and neither may be consumed — not
	// for comparison verdicts and not for hash minikeys. The requester
	// must retry, fall back to software, or quarantine.
	Poisoned bool
}

// Code reports the line's ECC code: the clean stored code, so minikeys
// derive from the line's true content even when the decoder corrected
// (or miscorrected) a fault, and zero when the read was poisoned. It is
// computed on demand — the model counts the encode in Stats.ECCEncodes or
// Stats.ECCDecodes when the fetch happens, and the host pays for it only
// when a consumer (the hash-key assembler) asks.
func (r FetchResult) Code() ecc.LineCode {
	if r.Poisoned {
		return ecc.LineCode{}
	}
	return ecc.EncodeLine(r.Clean[:])
}

// FetchLine services a PageForge request for one line of a physical frame
// at cycle now, per Section 3.2.2 / 3.3.2: probe the on-chip network first;
// otherwise coalesce with pending requests or access DRAM, attributing the
// traffic to the PageForge source.
func (c *Controller) FetchLine(pfn mem.PFN, lineIdx int, now uint64, src dram.Source) FetchResult {
	c.Stats.PFFetches++
	addr := uint64(pfn.LineAddr(lineIdx))
	data := c.Phys.ReadLine(pfn, lineIdx)

	if c.Hier != nil && c.Hier.ProbeNetwork(addr) {
		// Serviced from a cache: the response passes through the memory
		// controller and the ECC engine generates the code on the fly.
		c.Stats.PFNetworkHits++
		c.Stats.ECCEncodes++
		return FetchResult{Data: data, Clean: (*[ecc.LineSize]byte)(data), Latency: c.NetworkLatency, FromNetwork: true}
	}

	if p, ok := c.pending.get(addr); ok && p.done > now {
		// Another request for this line is already in flight: coalesce.
		c.Stats.PFCoalesced++
		res := c.readDIMM(addr, now, data)
		res.Latency = p.done - now
		return res
	}

	c.Stats.PFDRAMReads++
	c.Stats.ECCDecodes++
	lat := c.DRAM.Access(addr, now, false, src)
	c.trackPending(addr, now, now+lat, src)
	res := c.readDIMM(addr, now, data)
	res.Latency = lat
	return res
}

// readDIMM models the DIMM read data path. The stored ECC code arrives
// from the spare chip alongside the line (the simulation stores no
// separate ECC array — codes are recomputed, bit-identical for error-free
// cells), the fault model corrupts the wire/array data, and the decode
// engine corrects what it can. An uncorrectable error yields a Poisoned
// result carrying the raw corrupted data and a zero code; a corrected
// error yields the repaired data with the clean stored code, so minikeys
// always derive from the line's true content. Without a fault model, or
// when it leaves the line untouched, the decode is a no-op and the result
// is the clean line itself; only a corrected or poisoned read copies.
func (c *Controller) readDIMM(addr, now uint64, data []byte) FetchResult {
	clean := FetchResult{Data: data, Clean: (*[ecc.LineSize]byte)(data)}
	if c.Faults == nil {
		return clean
	}
	raw := c.raw[:]
	copy(raw, data)
	c.Faults.Corrupt(addr, now, raw)
	if bytes.Equal(raw, data) {
		return clean
	}
	decoded, st := ecc.DecodeLine(raw, ecc.EncodeLine(data))
	switch st {
	case ecc.OK:
		return clean
	case ecc.CorrectedData, ecc.CorrectedCheck:
		c.Stats.ECCCorrected++
		if &decoded[0] == &raw[0] {
			// No data word changed (the decoder blamed a check bit), so
			// DecodeLine handed back the scratch buffer itself.
			decoded = bytes.Clone(raw)
		}
		return FetchResult{Data: decoded, Clean: clean.Clean}
	default:
		c.Stats.ECCUncorrectable++
		return FetchResult{Data: bytes.Clone(raw), Poisoned: true}
	}
}

// trackPending records an in-flight read, first pruning completed entries
// once the table holds more than pruneThreshold so it stays small.
func (c *Controller) trackPending(addr, now, done uint64, src dram.Source) {
	if c.pending.len() > pruneThreshold {
		c.pending.prune(now)
	}
	c.pending.set(addr, pendingRead{done: done, src: src})
}
