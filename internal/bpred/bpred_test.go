package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.GShareEntries = 1000 // not pow2
	if err := bad.Validate(); err == nil {
		t.Error("non-pow2 gshare accepted")
	}
	bad = DefaultConfig()
	bad.RASDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero RAS depth accepted")
	}
	bad = DefaultConfig()
	bad.HistoryBits = 40
	if err := bad.Validate(); err == nil {
		t.Error("oversized history accepted")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{})
}

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter should saturate at 3, got %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Errorf("counter should saturate at 0, got %d", c)
	}
}

func TestLearnsAlwaysTaken(t *testing.T) {
	p := New(DefaultConfig())
	pc := isa.Addr(0x1000)
	for i := 0; i < 8; i++ {
		p.UpdateCond(pc, true)
	}
	if !p.predictCond(pc) {
		t.Error("predictor should learn always-taken branch")
	}
	if rate := p.Stats().MispredictRate(); rate > 0.5 {
		t.Errorf("mispredict rate %f too high for trivial branch", rate)
	}
}

func TestLearnsAlwaysNotTaken(t *testing.T) {
	p := New(DefaultConfig())
	pc := isa.Addr(0x2000)
	for i := 0; i < 8; i++ {
		p.UpdateCond(pc, false)
	}
	if p.predictCond(pc) {
		t.Error("predictor should learn never-taken branch")
	}
}

func TestLearnsAlternatingViaGshare(t *testing.T) {
	// A strictly alternating branch is predictable with global history;
	// after warmup the hybrid should do much better than 50%.
	p := New(DefaultConfig())
	pc := isa.Addr(0x3000)
	taken := false
	for i := 0; i < 2000; i++ {
		p.UpdateCond(pc, taken)
		taken = !taken
	}
	p.ResetStats()
	for i := 0; i < 2000; i++ {
		p.UpdateCond(pc, taken)
		taken = !taken
	}
	if rate := p.Stats().MispredictRate(); rate > 0.10 {
		t.Errorf("alternating branch mispredict rate = %f, want < 0.10", rate)
	}
}

func TestRandomBranchIsHard(t *testing.T) {
	// A data-dependent 50/50 branch cannot be predicted: rate should be
	// roughly 0.5, and certainly above 0.3 — this is the instability the
	// paper blames for wrong-path noise.
	p := New(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	pc := isa.Addr(0x4000)
	for i := 0; i < 5000; i++ {
		p.UpdateCond(pc, rng.Intn(2) == 0)
	}
	if rate := p.Stats().MispredictRate(); rate < 0.3 {
		t.Errorf("random branch mispredict rate = %f, suspiciously low", rate)
	}
}

func TestUpdateReturnsMispredict(t *testing.T) {
	p := New(DefaultConfig())
	pc := isa.Addr(0x5000)
	for i := 0; i < 8; i++ {
		p.UpdateCond(pc, true)
	}
	if mis := p.UpdateCond(pc, true); mis {
		t.Error("well-trained taken branch should not mispredict")
	}
	if mis := p.UpdateCond(pc, false); !mis {
		t.Error("surprise direction should mispredict")
	}
}

func TestBTB(t *testing.T) {
	p := New(DefaultConfig())
	pc, target := isa.Addr(0x100), isa.Addr(0x9000)
	if _, ok := p.BTBLookup(pc); ok {
		t.Error("cold BTB should miss")
	}
	p.BTBUpdate(pc, target)
	got, ok := p.BTBLookup(pc)
	if !ok || got != target {
		t.Errorf("BTBLookup = %v,%v want %v,true", got, ok, target)
	}
	s := p.Stats()
	if s.BTBLookups != 2 || s.BTBHits != 1 {
		t.Errorf("BTB stats = %+v", s)
	}
}

func TestBTBConflict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBEntries = 16
	p := New(cfg)
	a := isa.Addr(0x100)
	b := a + isa.Addr(16*4) // same index, different tag
	p.BTBUpdate(a, 0x1111)
	p.BTBUpdate(b, 0x2222)
	if _, ok := p.BTBLookup(a); ok {
		t.Error("conflicting entry should have evicted a")
	}
	if got, ok := p.BTBLookup(b); !ok || got != 0x2222 {
		t.Error("latest entry should hit")
	}
}

func TestRASLIFO(t *testing.T) {
	p := New(DefaultConfig())
	p.RASPush(0x10)
	p.RASPush(0x20)
	p.RASPush(0x30)
	want := []isa.Addr{0x30, 0x20, 0x10}
	for _, w := range want {
		got, ok := p.RASPop()
		if !ok || got != w {
			t.Errorf("RASPop = %v,%v want %v", got, ok, w)
		}
	}
	if _, ok := p.RASPop(); ok {
		t.Error("empty RAS should report not-ok")
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RASDepth = 2
	p := New(cfg)
	p.RASPush(0x10)
	p.RASPush(0x20)
	p.RASPush(0x30) // drops 0x10
	if p.RASDepthNow() != 2 {
		t.Fatalf("depth = %d, want 2", p.RASDepthNow())
	}
	if got, _ := p.RASPop(); got != 0x30 {
		t.Errorf("top = %v, want 0x30", got)
	}
	if got, _ := p.RASPop(); got != 0x20 {
		t.Errorf("next = %v, want 0x20", got)
	}
	if _, ok := p.RASPop(); ok {
		t.Error("0x10 should have been dropped")
	}
}

func TestRASPushPopProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		cfg := DefaultConfig()
		p := New(cfg)
		n := len(addrs)
		if n > cfg.RASDepth {
			n = cfg.RASDepth
		}
		for _, a := range addrs[:n] {
			p.RASPush(isa.Addr(a))
		}
		for i := n - 1; i >= 0; i-- {
			got, ok := p.RASPop()
			if !ok || got != isa.Addr(addrs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMispredictRateZeroDivision(t *testing.T) {
	var s Stats
	if s.MispredictRate() != 0 {
		t.Error("zero branches should give rate 0")
	}
}

func TestResetStats(t *testing.T) {
	p := New(DefaultConfig())
	p.UpdateCond(0x40, true)
	p.ResetStats()
	if p.Stats().CondBranches != 0 {
		t.Error("ResetStats should zero counters")
	}
}

// TestIndexMasksMatchRemainder: the masked table indexes equal the
// remainder by the table size for seeded random PCs and histories, at
// the default configuration and at 64-entry tables.
func TestIndexMasksMatchRemainder(t *testing.T) {
	small := Config{GShareEntries: 64, BimodalEntries: 64, ChooserEntries: 64, BTBEntries: 64, RASDepth: 4, HistoryBits: 6}
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []Config{DefaultConfig(), small} {
		p := New(cfg)
		for i := 0; i < 10_000; i++ {
			pc := isa.Addr(rng.Uint64())
			p.history = rng.Uint64()
			h := (uint64(pc) >> 2) ^ (p.history & p.histMask)
			for _, c := range []struct {
				name      string
				got, want int
			}{
				{"gshare", p.gshareIndex(pc), int(h % uint64(cfg.GShareEntries))},
				{"bimodal", p.bimodalIndex(pc), int((uint64(pc) >> 2) % uint64(cfg.BimodalEntries))},
				{"chooser", p.chooserIndex(pc), int((uint64(pc) >> 2) % uint64(cfg.ChooserEntries))},
				{"btb", p.btbIndex(pc), int((uint64(pc) >> 2) % uint64(cfg.BTBEntries))},
			} {
				if c.got != c.want {
					t.Fatalf("%d-entry %s index of pc %#x, history %#x: %d, want %d",
						cfg.GShareEntries, c.name, uint64(pc), p.history, c.got, c.want)
				}
			}
		}
	}
}
