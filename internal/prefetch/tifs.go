package prefetch

import "repro/internal/trace"

// TIFSConfig sizes the TIFS engine.
type TIFSConfig struct {
	// HistoryBlocks bounds the miss-history buffer; 0 means unlimited
	// (the paper's idealized competitive comparison, Figure 10 left).
	HistoryBlocks int
	// Streams is the number of concurrent stream buffers.
	Streams int
	// Lookahead is the replay window depth in blocks.
	Lookahead int
}

// DefaultTIFSConfig mirrors the paper's TIFS setup scaled to this model.
func DefaultTIFSConfig() TIFSConfig {
	return TIFSConfig{HistoryBlocks: 0, Streams: 4, Lookahead: 12}
}

// TIFS implements Temporal Instruction Fetch Streaming [Ferdman et al.,
// MICRO 2008]: it logs the sequence of L1-I miss addresses into a history
// buffer with an index of most-recent occurrences, and on a miss whose
// address has been seen before it replays the recorded miss stream through
// stream buffers, prefetching the upcoming blocks.
//
// Because TIFS trains on the *miss* stream, its history inherits the cache
// filtering and wrong-path injection the paper analyzes in Section 2; this
// is the mechanism PIF's retire-order recording removes.
type TIFS struct {
	lookahead int
	kernel    *Temporal
}

// NewTIFS builds a TIFS engine.
func NewTIFS(cfg TIFSConfig) *TIFS {
	lookahead := max(cfg.Lookahead, 1)
	return &TIFS{
		lookahead: lookahead,
		// A stream buffer advances on a demand anywhere in its window.
		kernel: NewTemporal(TemporalConfig{
			Windows:    cfg.Streams,
			Slack:      lookahead,
			MaxHistory: cfg.HistoryBlocks,
		}),
	}
}

// Name implements Prefetcher.
func (t *TIFS) Name() string { return "TIFS" }

// OnAccess implements Prefetcher. Misses are recorded into the history and
// trigger replay; all demand accesses advance matching streams, and an
// advanced stream re-issues its whole window.
func (t *TIFS) OnAccess(ev AccessEvent, iss Issuer) {
	w, _ := t.kernel.Advance(ev.Block)
	if w == nil && !ev.Hit {
		// A miss heading a recorded stream starts replaying it.
		w = t.kernel.Open(ev.Block)
	}
	// Issue before recording the miss, so a new window never holds it.
	if w != nil {
		for _, b := range t.kernel.Span(w.Pos, w.Pos+t.lookahead) {
			iss.Prefetch(b)
		}
	}
	if !ev.Hit {
		t.kernel.Append(ev.Block)
	}
}

// OnRetire implements Prefetcher (TIFS does not observe retirement).
func (t *TIFS) OnRetire(trace.Record, bool, Issuer) {}
