package ecc

import (
	"encoding/binary"
	"fmt"
)

// LineSize is the cache-line size of the modeled machine (Table 2: 64B).
const LineSize = 64

// WordsPerLine is the number of 64-bit ECC codewords per cache line.
const WordsPerLine = LineSize / 8

// LineCode is the 8-byte ECC code of a 64B line: one SECDED byte per 64-bit
// word, stored in the DIMM's spare chip alongside the line.
type LineCode [WordsPerLine]uint8

// Uint64 packs the line code as a little-endian 64-bit value; the paper's
// minikey is "the least-significant 8 bits of the ECC codes", i.e. byte 0.
func (c LineCode) Uint64() uint64 {
	var b [8]byte
	copy(b[:], c[:])
	return binary.LittleEndian.Uint64(b[:])
}

// EncodeLine computes the ECC code of a 64-byte line. It panics if the line
// is not exactly LineSize bytes: partial lines never reach the ECC engine.
func EncodeLine(line []byte) LineCode {
	if len(line) != LineSize {
		panic(fmt.Sprintf("ecc: EncodeLine on %d bytes, want %d", len(line), LineSize))
	}
	var code LineCode
	for w := 0; w < WordsPerLine; w++ {
		code[w] = Encode(binary.LittleEndian.Uint64(line[w*8 : w*8+8]))
	}
	return code
}

// DecodeLine verifies a line against its stored code, correcting single-bit
// data errors and reporting the worst status across words. The input is
// never modified: the result is line itself when no data word needed
// correcting, otherwise a corrected copy.
func DecodeLine(line []byte, stored LineCode) ([]byte, Status) {
	if len(line) != LineSize {
		panic(fmt.Sprintf("ecc: DecodeLine on %d bytes, want %d", len(line), LineSize))
	}
	var out []byte // the corrected copy, made on the first correction
	worst := OK
	for w := 0; w < WordsPerLine; w++ {
		word := binary.LittleEndian.Uint64(line[w*8 : w*8+8])
		fixed, st := Decode(word, stored[w])
		if st == CorrectedData {
			if out == nil {
				out = append([]byte(nil), line...)
			}
			binary.LittleEndian.PutUint64(out[w*8:w*8+8], fixed)
		}
		if st > worst {
			worst = st
		}
	}
	if out == nil {
		return line, worst
	}
	return out, worst
}

// Minikey extracts the paper's 8-bit minikey from a line code: the
// least-significant byte of the 8B ECC code, i.e. the SECDED byte of the
// line's first 64-bit word.
func (c LineCode) Minikey() uint8 { return c[0] }
