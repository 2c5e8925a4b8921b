package prefetch

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
)

// studyConfig and studyLookahead are the Figure 2/7 predictor's values
// (internal/experiments).
var studyConfig = TemporalConfig{Windows: 16, Slack: 8, StaleAfter: 64}

const studyLookahead = 32

// studyDriver drives a kernel as the Figure 2 and 7 studies do: an
// observed block advances a window or else opens one, then is recorded.
type studyDriver struct {
	*Temporal
	advances, opens int
}

func newStudyDriver(cfg TemporalConfig) *studyDriver {
	return &studyDriver{Temporal: NewTemporal(cfg)}
}

func (p *studyDriver) observe(bs ...isa.Block) {
	for _, b := range bs {
		if w, _ := p.Advance(b); w != nil {
			p.advances++
		} else if p.Open(b) != nil {
			p.opens++
		}
		p.Append(b)
	}
}

// predicted reports whether b lies in the lookahead of a live window: a
// block the predictor would prefetch.
func (p *studyDriver) predicted(b isa.Block) bool {
	for _, w := range p.windows {
		if w.live && slices.Contains(p.Span(w.Pos, w.Pos+studyLookahead), b) {
			return true
		}
	}
	return false
}

func blocks(vals ...int) []isa.Block {
	out := make([]isa.Block, len(vals))
	for i, v := range vals {
		out[i] = isa.Block(v)
	}
	return out
}

func TestTemporalReplaysRepeatedStream(t *testing.T) {
	p := newStudyDriver(studyConfig)
	p.observe(blocks(10, 11, 12, 13, 14, 20, 30, 40)...)
	// Interleave an unrelated stream so the repeat is not adjacent.
	p.observe(blocks(100, 101, 102)...)
	// The stream head's second occurrence opens a replay of the rest.
	p.observe(10)
	for _, b := range blocks(11, 12, 13, 14, 20, 30, 40) {
		if !p.predicted(b) {
			t.Errorf("block %v not predicted on replay", b)
		}
	}
	if p.predicted(999) {
		t.Error("unrecorded block predicted")
	}
}

func TestTemporalColdStreamNotPredicted(t *testing.T) {
	p := newStudyDriver(studyConfig)
	p.observe(blocks(1, 2, 3)...)
	if p.predicted(4) {
		t.Error("never-seen block predicted")
	}
}

func TestTemporalReplayAdvances(t *testing.T) {
	p := newStudyDriver(studyConfig)
	seq := blocks(10, 11, 12, 13, 14, 15, 16, 17, 18, 19)
	p.observe(seq...)
	p.observe(blocks(50, 51, 52)...)
	// Follow the replay: each block advances the window.
	p.observe(seq[:5]...)
	if p.advances != 4 {
		t.Errorf("advances = %d while following a replay, want 4", p.advances)
	}
	if !p.predicted(19) {
		t.Error("tail of stream should still be predicted after advancing")
	}
}

func TestTemporalAdvanceToleratesGaps(t *testing.T) {
	// Recorded: 10,11,12,13,14. The replayed visit skips 11 (a branch
	// went the other way): 10,12,13. The window must keep up.
	p := newStudyDriver(studyConfig)
	p.observe(blocks(10, 11, 12, 13, 14)...)
	p.observe(blocks(70, 71)...)
	p.observe(blocks(10, 12, 13)...)
	if p.advances != 2 || !p.predicted(14) {
		t.Errorf("advances = %d, predicted(14) = %v; the window should have advanced past the gap",
			p.advances, p.predicted(14))
	}
}

func TestTemporalDivergentHistoryMispredicts(t *testing.T) {
	// Fragmented (miss-stream-like) history: the recorded sequence after
	// the trigger differs from what actually recurs, so coverage is lost.
	p := newStudyDriver(studyConfig)
	p.observe(blocks(10, 99, 98, 97)...)
	p.observe(blocks(50, 51)...)
	p.observe(10)
	for _, b := range blocks(11, 12, 13) {
		if p.predicted(b) {
			t.Errorf("block %v predicted from divergent history", b)
		}
	}
}

func TestTemporalMostRecentOccurrenceWins(t *testing.T) {
	p := newStudyDriver(studyConfig)
	// The first occurrence of 10 is followed by 20s, the second by 30s.
	p.observe(blocks(10, 20, 21, 22)...)
	p.observe(blocks(10, 30, 31, 32)...)
	p.observe(blocks(50, 51)...)
	p.observe(10)
	if !p.predicted(30) {
		t.Error("replay should start at the most recent occurrence")
	}
}

func TestTemporalBoundedHistoryForgets(t *testing.T) {
	cfg := studyConfig
	cfg.MaxHistory = 8
	p := newStudyDriver(cfg)
	p.observe(blocks(10, 11, 12, 13)...)
	for i := 0; i < 20; i++ {
		p.observe(isa.Block(100 + i))
	}
	if len(p.history) != 8 {
		t.Fatalf("history len = %d, want 8", len(p.history))
	}
	// The old stream is gone; the index points before the retained history.
	p.observe(10)
	if p.predicted(11) {
		t.Error("evicted history should not predict")
	}
}

func TestTemporalWindowLRUReplacement(t *testing.T) {
	cfg := studyConfig
	cfg.Windows = 2
	cfg.Slack = 2 // keep the three streams from aliasing into one window
	p := newStudyDriver(cfg)
	// Record three separate streams, then open three replays; only two
	// windows exist.
	p.observe(blocks(10, 11, 12, 0, 20, 21, 22, 0, 30, 31, 32, 1)...)
	p.observe(blocks(10, 20, 30)...)
	if p.opens != 3 {
		t.Fatalf("opens = %d, want 3", p.opens)
	}
	// The two most recent replays stay live; the oldest was replaced.
	if !p.predicted(31) || !p.predicted(21) {
		t.Error("recent replays should be live")
	}
	if p.predicted(11) {
		t.Error("least recently used replay should have been replaced")
	}
}

func TestTemporalZeroConfigNormalized(t *testing.T) {
	p := newStudyDriver(TemporalConfig{})
	p.observe(1, 2, 1, 2)
	if len(p.windows) != 1 || p.cfg.Slack != 1 {
		t.Fatalf("zero config normalized to %d windows, slack %d; want 1 and 1", len(p.windows), p.cfg.Slack)
	}
	if p.advances != 1 {
		t.Errorf("advances = %d, want 1", p.advances)
	}
}

// fuzzAlphabet is the fuzzers' block alphabet. It includes block 0 and
// the top of the block space, and in the fuzz cache's 4 sets its blocks
// conflict.
var fuzzAlphabet = [16]isa.Block{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
	^isa.Block(3), ^isa.Block(2), ^isa.Block(1), ^isa.Block(0)}

// fuzzCache has 4 sets of 2 ways.
var fuzzCache = cache.Config{SizeBytes: 512, Assoc: 2, BlockBytes: 64}

// recordingIssuer fills its own cache like the simulator's issuer and
// records every Prefetch call.
type recordingIssuer struct {
	l1    *cache.Cache
	calls []isa.Block
}

func (r *recordingIssuer) Prefetch(b isa.Block) {
	r.calls = append(r.calls, b)
	if !r.l1.Contains(b) {
		r.l1.Fill(b, true)
	}
}

func (r *recordingIssuer) Evictions() uint64 { return r.l1.Evictions() }

// demand probes the issuer's cache for b, fills a miss as the simulator
// does, and passes the access to the engine.
func (r *recordingIssuer) demand(e interface{ OnAccess(AccessEvent, Issuer) }, b isa.Block) {
	hit, pf := r.l1.Access(b)
	if !hit {
		r.l1.Fill(b, false)
	}
	e.OnAccess(AccessEvent{Block: b, Hit: hit, WasPrefetched: pf}, r)
}

// FuzzTIFS runs TIFS and refTIFS over one access stream, each through its
// own tiny cache, and requires the same Prefetch calls after every
// access. Input: byte 0 holds history 0-15 (low nibble) and streams 1-4,
// byte 1 the lookahead 1-12, and every later byte one access.
func FuzzTIFS(f *testing.F) {
	// Default streams over a repeated 12-block loop.
	f.Add([]byte{3 << 4, 11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	// Bounded history: the last miss's index entry precedes the oldest
	// retained block.
	f.Add([]byte{3 | 1<<4, 4, 0, 4, 8, 1, 5, 0, 4, 8, 1, 5, 0})
	// Block 0 and the top of the block space, with a wrapping history.
	f.Add([]byte{5 | 2<<4, 6, 15, 0, 14, 12, 13, 15, 0, 14, 12, 13, 0, 15, 3, 7, 15, 0, 14})
	// A stream that ran off the end of the history is the next victim.
	f.Add([]byte{15 | 1<<4, 7, 0, 0, 0, 14, 10, 2, 14, 0, 8, 8, 6, 0, 4, 10, 1, 0, 7, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := TIFSConfig{
			HistoryBlocks: int(data[0] & 15),
			Streams:       1 + int(data[0]>>4&3),
			Lookahead:     1 + int(data[1])%12,
		}
		prod, ref := NewTIFS(cfg), newRefTIFS(cfg)
		pIss := &recordingIssuer{l1: cache.New(fuzzCache)}
		rIss := &recordingIssuer{l1: cache.New(fuzzCache)}
		for i, c := range data[2:] {
			b := fuzzAlphabet[c&15]
			pIss.demand(prod, b)
			rIss.demand(ref, b)
			if !slices.Equal(pIss.calls, rIss.calls) {
				t.Fatalf("%+v, access %d (%v): prefetched %v, reference %v", cfg, i, b, pIss.calls, rIss.calls)
			}
			pIss.calls, rIss.calls = pIss.calls[:0], rIss.calls[:0]
		}
	})
}

// FuzzTemporalPredictor drives the kernel as the Figure 2 and 7 studies do
// and refPredictor through its hooks over one block stream, and requires
// the same exposed blocks and advance distances after every block. Input:
// byte 0 holds the windows 1-16, byte 1 the lookahead 1-32, byte 2 the
// slack 1-lookahead, byte 3 the staleness 0-80, and every later byte one
// block.
func FuzzTemporalPredictor(f *testing.F) {
	// The figures' configuration over a loop with a detour.
	f.Add([]byte{15, 31, 7, 64, 0, 1, 2, 3, 4, 5, 0, 1, 2, 6, 7, 4, 5, 0, 1, 2, 3, 4, 5})
	// Two windows, quick staleness, a gapped replay.
	f.Add([]byte{1, 5, 2, 3, 0, 1, 2, 3, 4, 9, 0, 2, 3, 9, 9, 9, 9, 9, 0, 1, 4, 12, 13, 0, 3})
	// One window that runs off the end of the history and reopens.
	f.Add([]byte{0, 3, 1, 0, 15, 0, 15, 0, 15, 15, 0, 0, 15, 14, 15, 0, 14})
	// A window that ran off the end of the history is the next victim,
	// ahead of an older live one.
	f.Add([]byte{1, 16, 14, 48, 2, 1, 0, 1, 0, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		lookahead := 1 + int(data[1]%32)
		cfg := TemporalConfig{
			Windows:    1 + int(data[0]&15),
			Slack:      1 + int(data[2])%lookahead,
			StaleAfter: int(data[3]) % 81,
		}
		ref := newRefPredictor(refPredictorConfig{
			Windows: cfg.Windows, Lookahead: lookahead, AdvanceSlack: cfg.Slack, StaleAfter: cfg.StaleAfter,
		})
		var refExposed []isa.Block
		var refDists []int
		ref.ExposeHook = func(b isa.Block) { refExposed = append(refExposed, b) }
		ref.AdvanceHook = func(d int) { refDists = append(refDists, d) }
		k := NewTemporal(cfg)
		for i, c := range data[4:] {
			b := fuzzAlphabet[c&15]
			var exposed []isa.Block
			var dists []int
			if w, from := k.Advance(b); w != nil {
				dists = append(dists, w.Dist)
				exposed = k.Span(from+lookahead, w.Pos+lookahead)
			} else if w := k.Open(b); w != nil {
				exposed = k.Span(w.Pos, w.Pos+lookahead)
			}
			k.Append(b)
			ref.Observe(b)
			if !slices.Equal(exposed, refExposed) || !slices.Equal(dists, refDists) {
				t.Fatalf("%+v lookahead %d, block %d (%v): exposed %v, distances %v; reference %v, %v",
					cfg, lookahead, i, b, exposed, dists, refExposed, refDists)
			}
			refExposed, refDists = refExposed[:0], refDists[:0]
		}
	})
}
