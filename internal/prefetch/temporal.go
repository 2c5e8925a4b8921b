package prefetch

import (
	"repro/internal/blocktab"
	"repro/internal/isa"
)

// TemporalConfig sizes a Temporal kernel.
type TemporalConfig struct {
	// Windows is the number of concurrent replay windows.
	Windows int
	// Slack is how far into a window, in history positions, an observed
	// block may match to advance it; a match past the window's head
	// skips the blocks before it (small reorderings and gaps).
	Slack int
	// MaxHistory bounds the retained history in blocks; 0 means
	// unlimited.
	MaxHistory int
	// StaleAfter kills a window that has not advanced within this many
	// observations, as a hardware stream buffer that stops matching the
	// live stream dies; 0 disables staleness.
	StaleAfter int
}

// Window is one replay of a recorded stream.
type Window struct {
	// Pos is the absolute history position the replay expects next.
	Pos int
	// Dist is the history distance between the two occurrences of the
	// block that opened the window (the Figure 7 jump distance).
	Dist int
	live bool
	lru  uint64
}

// Temporal is the record-and-replay kernel of temporal streaming, shared
// by TIFS and the Section 2 recording-point predictor of Figures 2 and 7.
// It appends a block stream to a history with an index of each block's
// most recent position and replays the history that followed a block's
// previous occurrence through LRU-replaced windows. Callers decide which
// stream to record and what a replay issues; the paper's Section 2 study
// isolates the recording point because everything else is this one
// mechanism.
//
// A caller observes each block with Advance; if no window advanced, it
// may Open one; then it records the block with Append. The index never
// forgets a block, so with bounded history it may point before the oldest
// retained block; such a window replays nothing.
type Temporal struct {
	cfg     TemporalConfig
	history []isa.Block
	base    int // history[0] is absolute position base
	index   blocktab.Table[int]
	windows []Window
	clock   uint64
}

// NewTemporal builds a kernel; non-positive Windows and Slack become 1.
func NewTemporal(cfg TemporalConfig) *Temporal {
	cfg.Windows = max(cfg.Windows, 1)
	cfg.Slack = max(cfg.Slack, 1)
	return &Temporal{cfg: cfg, windows: make([]Window, cfg.Windows)}
}

// end returns the absolute position one past the newest block.
func (t *Temporal) end() int { return t.base + len(t.history) }

// Span returns the recorded blocks at absolute history positions
// [from, to), cut at the newest block. It is empty when from precedes the
// oldest retained block: a replay stops at the first position it cannot
// read.
func (t *Temporal) Span(from, to int) []isa.Block {
	i, j := from-t.base, min(to, t.end())-t.base
	if i < 0 || i >= j {
		return nil
	}
	return t.history[i:j]
}

// Advance observes b. In slot order, the first live window that holds b
// within Slack positions of its head moves just past b; the window dies
// when that leaves it at the end of the history. Advance returns that
// window and its position before the move, or nil when no window matched.
func (t *Temporal) Advance(b isa.Block) (w *Window, from int) {
	t.clock++
	for i := range t.windows {
		w := &t.windows[i]
		if w.live && t.cfg.StaleAfter > 0 && t.clock-w.lru > uint64(t.cfg.StaleAfter) {
			w.live = false
		}
		if !w.live {
			continue
		}
		for k, hb := range t.Span(w.Pos, w.Pos+t.cfg.Slack) {
			if hb == b {
				from = w.Pos
				w.Pos += k + 1
				w.lru = t.clock
				w.live = w.Pos < t.end()
				return w, from
			}
		}
	}
	return nil, 0
}

// Open starts replaying the history that followed b's most recent
// occurrence, in the first dead window or else the least recently
// advanced one. It returns nil when b is unrecorded or its most recent
// occurrence is the newest block.
func (t *Temporal) Open(b isa.Block) *Window {
	prev, ok := t.index.Get(b)
	if !ok || prev+1 >= t.end() {
		return nil
	}
	v := 0
	for i := range t.windows {
		if !t.windows[i].live {
			v = i
			break
		}
		if t.windows[i].lru < t.windows[v].lru {
			v = i
		}
	}
	t.windows[v] = Window{Pos: prev + 1, Dist: t.end() - prev, live: true, lru: t.clock}
	return &t.windows[v]
}

// Append records b as the newest block, dropping the oldest beyond
// MaxHistory.
func (t *Temporal) Append(b isa.Block) {
	t.index.Put(b, t.end())
	t.history = append(t.history, b)
	if drop := len(t.history) - t.cfg.MaxHistory; t.cfg.MaxHistory > 0 && drop > 0 {
		t.history = t.history[drop:]
		t.base += drop
	}
}
