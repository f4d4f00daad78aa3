package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ecc"
	"repro/internal/sim"
)

// ECCEncodeResult is the SECDED encoder benchmark's machine-readable
// outcome: the per-word cost of the bitwise reference encoder and of the
// table-driven one the data path uses, and their ratio. The ratio is what
// perfcheck gates on; absolute ns/word shift with the host.
type ECCEncodeResult struct {
	RefNsPerWord   float64 `json:"ref_ns_per_word"`
	TableNsPerWord float64 `json:"table_ns_per_word"`
	Speedup        float64 `json:"speedup"`
	Words          int     `json:"words"`
}

// eccBenchWords and eccBenchPasses size one timed run: the same seeded
// words are encoded eccBenchPasses times so the buffer stays cache-resident
// and the loop measures the encoder, not memory.
const (
	eccBenchWords  = 1 << 14
	eccBenchPasses = 64
	eccBenchRuns   = 9
)

// RunECCEncodeBench times ecc.EncodeRef against ecc.Encode over identical
// seeded words. Runs alternate between the encoders; the reported ns/word
// are each encoder's best run, and the speedup is the median of the
// back-to-back run pairs' ratios, so host-speed drift that slows both
// encoders of a pair alike cancels out of the gated number.
func RunECCEncodeBench() (ECCEncodeResult, error) {
	words := make([]uint64, eccBenchWords)
	rng := sim.NewRNG(0xECC)
	for i := range words {
		words[i] = rng.Uint64()
	}
	// The two loops differ only in the encoder they call; each calls it
	// directly, so the table encoder inlines as it does on the data path.
	// Each sums its codes into a checksum, which keeps the encodes live
	// and must agree between the encoders.
	timeRef := func() (time.Duration, uint64) {
		var acc uint64
		start := time.Now()
		for p := 0; p < eccBenchPasses; p++ {
			for _, w := range words {
				acc += uint64(ecc.EncodeRef(w))
			}
		}
		return time.Since(start), acc
	}
	timeTable := func() (time.Duration, uint64) {
		var acc uint64
		start := time.Now()
		for p := 0; p < eccBenchPasses; p++ {
			for _, w := range words {
				acc += uint64(ecc.Encode(w))
			}
		}
		return time.Since(start), acc
	}
	var ref, table time.Duration
	ratios := make([]float64, eccBenchRuns)
	for r := range ratios {
		dr, sumRef := timeRef()
		dt, sumTable := timeTable()
		if sumRef != sumTable {
			return ECCEncodeResult{}, fmt.Errorf("ecc bench: table encoder checksum %#x, reference %#x", sumTable, sumRef)
		}
		if r == 0 || dr < ref {
			ref = dr
		}
		if r == 0 || dt < table {
			table = dt
		}
		ratios[r] = float64(dr) / float64(max(dt, 1))
	}
	sort.Float64s(ratios)
	n := eccBenchWords * eccBenchPasses
	return ECCEncodeResult{
		RefNsPerWord:   float64(ref.Nanoseconds()) / float64(n),
		TableNsPerWord: float64(table.Nanoseconds()) / float64(n),
		Speedup:        ratios[len(ratios)/2],
		Words:          n,
	}, nil
}
