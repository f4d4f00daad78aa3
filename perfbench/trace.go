package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call: name, start and end in nanoseconds since the
// tracer's epoch, and the index of the span that caused it (-1: root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), End: -1, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// rename relabels a span whose kind is known only after it ended.
func (t *tracer) rename(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].Name = name
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children (children may nest,
// overlap each other, or stick out of the parent; only the covered part of
// the parent's own interval counts).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				if v.hi > curHi {
					curHi = v.hi
				}
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanStats aggregates every span with the given name: count, summed
// duration and summed self time, in nanoseconds.
type spanStats struct {
	n         int
	total     int64
	totalSelf int64
	durations []int64
}

func statsByName(spans []span, self []int64, name string) spanStats {
	var st spanStats
	for i, s := range spans {
		if s.Name != name || s.End < s.Start {
			continue
		}
		st.n++
		st.total += s.End - s.Start
		st.totalSelf += self[i]
		st.durations = append(st.durations, s.End-s.Start)
	}
	return st
}

func (s spanStats) meanNs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n)
}

func (s spanStats) meanSelfNs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.totalSelf) / float64(s.n)
}

func (s spanStats) medianNs() float64 {
	xs := make([]float64, len(s.durations))
	for i, d := range s.durations {
		xs[i] = float64(d)
	}
	return median(xs)
}

// writeSpans writes the spans as JSON lines under dir.
func writeSpans(dir, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
