package memctrl

import "repro/internal/dram"

// Checkpoint support. The controller's only mutable state beyond the stats
// is the in-flight read table, serialized as a slice sorted by address (the
// table has no stable order); coalescing decisions after a restore then see exactly the
// completion windows the uninterrupted run would have seen.

// PendingState is one serialized in-flight read.
type PendingState struct {
	Addr uint64
	Done uint64
	Src  dram.Source
}

// ControllerState is the serialized image of a Controller.
type ControllerState struct {
	Stats   Stats
	Pending []PendingState
}

// State captures the controller.
func (c *Controller) State() ControllerState {
	return ControllerState{Stats: c.Stats, Pending: c.pending.state()}
}

// SetState restores the controller in place.
func (c *Controller) SetState(st ControllerState) {
	c.Stats = st.Stats
	c.pending.reset()
	for _, p := range st.Pending {
		c.pending.set(p.Addr, pendingRead{done: p.Done, src: p.Src})
	}
}

// ScrubberState is the serialized image of a Scrubber.
type ScrubberState struct {
	Cursor  uint64
	Stats   ScrubStats
	UEAddrs []uint64
}

// State captures the scrubber.
func (s *Scrubber) State() ScrubberState {
	return ScrubberState{
		Cursor:  s.cursor,
		Stats:   s.Stats,
		UEAddrs: append([]uint64(nil), s.UEAddrs...),
	}
}

// SetState restores the scrubber in place.
func (s *Scrubber) SetState(st ScrubberState) {
	s.cursor = st.Cursor
	s.Stats = st.Stats
	s.UEAddrs = append(s.UEAddrs[:0], st.UEAddrs...)
}
