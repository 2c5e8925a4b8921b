package prefetch

import "repro/internal/isa"

// The two references below are the record-and-replay loops TIFS and the
// Figure 2/7 predictor ran before both became configurations of
// Temporal. They keep their own history, Go-map index and windows, and
// FuzzTIFS and FuzzTemporalPredictor hold the kernel to them.

// refTIFS is the reference TIFS loop.
type refTIFS struct {
	cfg     TIFSConfig
	history []isa.Block
	base    int
	index   map[isa.Block]int
	streams []refStream
	clock   uint64
}

type refStream struct {
	pos  int
	live bool
	lru  uint64
}

func newRefTIFS(cfg TIFSConfig) *refTIFS {
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = 1
	}
	return &refTIFS{
		cfg:     cfg,
		index:   make(map[isa.Block]int),
		streams: make([]refStream, cfg.Streams),
	}
}

func (t *refTIFS) at(pos int) (isa.Block, bool) {
	i := pos - t.base
	if i < 0 || i >= len(t.history) {
		return 0, false
	}
	return t.history[i], true
}

func (t *refTIFS) end() int { return t.base + len(t.history) }

func (t *refTIFS) OnAccess(ev AccessEvent, iss Issuer) {
	t.clock++
	b := ev.Block

	advanced := false
	for i := range t.streams {
		s := &t.streams[i]
		if !s.live {
			continue
		}
		for k := 0; k < t.cfg.Lookahead; k++ {
			hb, ok := t.at(s.pos + k)
			if !ok {
				break
			}
			if hb == b {
				s.pos += k + 1
				s.lru = t.clock
				if s.pos >= t.end() {
					s.live = false
				} else {
					t.issueWindow(s, iss)
				}
				advanced = true
				break
			}
		}
		if advanced {
			break
		}
	}

	if ev.Hit {
		return
	}

	if !advanced {
		if pos, ok := t.index[b]; ok {
			t.open(pos+1, iss)
		}
	}
	t.index[b] = t.end()
	t.history = append(t.history, b)
	if t.cfg.HistoryBlocks > 0 && len(t.history) > t.cfg.HistoryBlocks {
		drop := len(t.history) - t.cfg.HistoryBlocks
		t.history = t.history[drop:]
		t.base += drop
	}
}

func (t *refTIFS) open(pos int, iss Issuer) {
	if pos >= t.end() {
		return
	}
	victim := 0
	for i := range t.streams {
		if !t.streams[i].live {
			victim = i
			break
		}
		if t.streams[i].lru < t.streams[victim].lru {
			victim = i
		}
	}
	t.streams[victim] = refStream{pos: pos, live: true, lru: t.clock}
	t.issueWindow(&t.streams[victim], iss)
}

func (t *refTIFS) issueWindow(s *refStream, iss Issuer) {
	for k := 0; k < t.cfg.Lookahead; k++ {
		hb, ok := t.at(s.pos + k)
		if !ok {
			return
		}
		iss.Prefetch(hb)
	}
}

// refPredictorConfig sizes refPredictor.
type refPredictorConfig struct {
	Windows      int
	Lookahead    int
	AdvanceSlack int
	MaxHistory   int
	StaleAfter   int
}

// refPredictor is the reference Figure 2/7 predictor. It reports each
// advance's opening jump distance to AdvanceHook and every newly exposed
// history block to ExposeHook.
type refPredictor struct {
	cfg     refPredictorConfig
	history []isa.Block
	base    int
	index   map[isa.Block]int
	windows []refWindow
	clock   uint64

	AdvanceHook func(openDist int)
	ExposeHook  func(b isa.Block)
}

type refWindow struct {
	pos      int
	live     bool
	lru      uint64
	openDist int
}

func newRefPredictor(cfg refPredictorConfig) *refPredictor {
	if cfg.Windows <= 0 {
		cfg.Windows = 1
	}
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = 1
	}
	if cfg.AdvanceSlack <= 0 {
		cfg.AdvanceSlack = 1
	}
	return &refPredictor{
		cfg:     cfg,
		index:   make(map[isa.Block]int),
		windows: make([]refWindow, cfg.Windows),
	}
}

func (p *refPredictor) at(pos int) (isa.Block, bool) {
	i := pos - p.base
	if i < 0 || i >= len(p.history) {
		return 0, false
	}
	return p.history[i], true
}

func (p *refPredictor) end() int { return p.base + len(p.history) }

func (p *refPredictor) Observe(b isa.Block) {
	p.clock++

	if p.cfg.StaleAfter > 0 {
		for i := range p.windows {
			w := &p.windows[i]
			if w.live && p.clock-w.lru > uint64(p.cfg.StaleAfter) {
				w.live = false
			}
		}
	}

	advanced := false
	for i := range p.windows {
		w := &p.windows[i]
		if !w.live {
			continue
		}
		for k := 0; k < p.cfg.AdvanceSlack; k++ {
			hb, ok := p.at(w.pos + k)
			if !ok {
				break
			}
			if hb == b {
				oldPos := w.pos
				w.pos += k + 1
				w.lru = p.clock
				if w.pos >= p.end() {
					w.live = false
				}
				advanced = true
				if p.AdvanceHook != nil {
					p.AdvanceHook(w.openDist)
				}
				p.expose(oldPos+p.cfg.Lookahead, w.pos+p.cfg.Lookahead)
				break
			}
		}
		if advanced {
			break
		}
	}

	if !advanced {
		if pos, ok := p.index[b]; ok {
			p.open(pos+1, p.end()-pos)
		}
	}

	p.index[b] = p.end()
	p.history = append(p.history, b)
	if p.cfg.MaxHistory > 0 && len(p.history) > p.cfg.MaxHistory {
		drop := len(p.history) - p.cfg.MaxHistory
		p.history = p.history[drop:]
		p.base += drop
	}
}

func (p *refPredictor) open(pos, openDist int) {
	if pos >= p.end() {
		return
	}
	victim := 0
	for i := range p.windows {
		if !p.windows[i].live {
			victim = i
			break
		}
		if p.windows[i].lru < p.windows[victim].lru {
			victim = i
		}
	}
	p.windows[victim] = refWindow{pos: pos, live: true, lru: p.clock, openDist: openDist}
	p.expose(pos, pos+p.cfg.Lookahead)
}

func (p *refPredictor) expose(from, to int) {
	if p.ExposeHook == nil {
		return
	}
	for pos := from; pos < to; pos++ {
		if hb, ok := p.at(pos); ok {
			p.ExposeHook(hb)
		}
	}
}
