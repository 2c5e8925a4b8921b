package prefetch

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// fakeIssuer records the blocks it fills. Like the simulator's issuer it
// ignores a Prefetch of a resident block. No test here makes a block
// non-resident, so its eviction count never moves.
type fakeIssuer struct {
	resident   map[isa.Block]bool
	prefetched []isa.Block
}

func newFakeIssuer() *fakeIssuer { return &fakeIssuer{resident: map[isa.Block]bool{}} }

func (f *fakeIssuer) Prefetch(b isa.Block) {
	if f.resident[b] {
		return
	}
	f.prefetched = append(f.prefetched, b)
	f.resident[b] = true
}

func (f *fakeIssuer) Evictions() uint64 { return 0 }

func (f *fakeIssuer) got(b isa.Block) bool {
	for _, x := range f.prefetched {
		if x == b {
			return true
		}
	}
	return false
}

func TestAccessEventPrefetched(t *testing.T) {
	if (AccessEvent{Hit: true, WasPrefetched: true}).Prefetched() != true {
		t.Error("prefetch hit should report Prefetched")
	}
	if (AccessEvent{Hit: true}).Prefetched() {
		t.Error("plain hit is not Prefetched")
	}
	if (AccessEvent{Hit: false, WasPrefetched: true}).Prefetched() {
		t.Error("miss is never Prefetched")
	}
}

func TestNoneDoesNothing(t *testing.T) {
	var n None
	iss := newFakeIssuer()
	n.OnAccess(AccessEvent{Block: 5}, iss)
	n.OnRetire(trace.Record{}, true, iss)
	if len(iss.prefetched) != 0 {
		t.Error("None prefetched blocks")
	}
	if n.Name() != "None" {
		t.Errorf("Name = %s", n.Name())
	}
}

func TestNextLinePrefetchesSuccessors(t *testing.T) {
	nl := NewNextLine(4)
	iss := newFakeIssuer()
	nl.OnAccess(AccessEvent{Block: 100}, iss)
	for i := 1; i <= 4; i++ {
		if !iss.got(isa.Block(100 + i)) {
			t.Errorf("block %d not prefetched", 100+i)
		}
	}
	if iss.got(isa.Block(105)) {
		t.Error("prefetched beyond degree")
	}
	if iss.got(isa.Block(100)) {
		t.Error("prefetched the accessed block itself")
	}
}

func TestNextLineSkipsResident(t *testing.T) {
	nl := NewNextLine(2)
	iss := newFakeIssuer()
	iss.resident[101] = true
	nl.OnAccess(AccessEvent{Block: 100}, iss)
	if iss.got(101) {
		t.Error("resident block prefetched")
	}
	if !iss.got(102) {
		t.Error("non-resident successor not prefetched")
	}
}

func TestNextLineDegreeNormalized(t *testing.T) {
	nl := NewNextLine(0)
	if nl.Degree != 1 {
		t.Errorf("degree = %d, want 1", nl.Degree)
	}
	if nl.Name() != "Next-Line" {
		t.Errorf("Name = %s", nl.Name())
	}
}

func missAt(tifs *TIFS, iss Issuer, b isa.Block) {
	tifs.OnAccess(AccessEvent{Block: b, Hit: false}, iss)
}

func hitAt(tifs *TIFS, iss Issuer, b isa.Block) {
	tifs.OnAccess(AccessEvent{Block: b, Hit: true}, iss)
}

func TestTIFSReplaysMissStream(t *testing.T) {
	tifs := NewTIFS(DefaultTIFSConfig())
	iss := newFakeIssuer()
	// Record a miss stream.
	for _, b := range []isa.Block{10, 30, 50, 70, 90} {
		missAt(tifs, iss, b)
	}
	// Unrelated misses.
	for _, b := range []isa.Block{200, 201} {
		missAt(tifs, iss, b)
	}
	// Recurrence of the head: replay should prefetch the recorded stream.
	iss2 := newFakeIssuer()
	missAt(tifs, iss2, 10)
	for _, b := range []isa.Block{30, 50, 70, 90} {
		if !iss2.got(b) {
			t.Errorf("block %v not prefetched on TIFS replay", b)
		}
	}
}

func TestTIFSHitsDoNotRecord(t *testing.T) {
	tifs := NewTIFS(DefaultTIFSConfig())
	iss := newFakeIssuer()
	hitAt(tifs, iss, 10)
	hitAt(tifs, iss, 11)
	if len(tifs.kernel.history) != 0 {
		t.Errorf("hits recorded into history: len=%d", len(tifs.kernel.history))
	}
}

func TestTIFSAdvanceExtendsReplay(t *testing.T) {
	cfg := DefaultTIFSConfig()
	cfg.Lookahead = 3
	tifs := NewTIFS(cfg)
	iss := newFakeIssuer()
	var seq []isa.Block
	for i := 0; i < 12; i++ {
		seq = append(seq, isa.Block(10+20*i))
	}
	for _, b := range seq {
		missAt(tifs, iss, b)
	}
	missAt(tifs, iss, 999)

	iss2 := newFakeIssuer()
	missAt(tifs, iss2, seq[0])
	if iss2.got(seq[8]) {
		t.Fatal("lookahead not bounded")
	}
	// Demand fetches walk the stream; prefetches must stay ahead.
	for _, b := range seq[1:8] {
		hitAt(tifs, iss2, b)
	}
	if !iss2.got(seq[8]) {
		t.Error("TIFS did not extend the replay while being followed")
	}
}

func TestTIFSBoundedHistory(t *testing.T) {
	cfg := DefaultTIFSConfig()
	cfg.HistoryBlocks = 4
	tifs := NewTIFS(cfg)
	iss := newFakeIssuer()
	for i := 0; i < 20; i++ {
		missAt(tifs, iss, isa.Block(i))
	}
	if len(tifs.kernel.history) != 4 {
		t.Errorf("history len = %d, want 4", len(tifs.kernel.history))
	}
}

func TestTIFSFragmentedHistoryLosesCoverage(t *testing.T) {
	// The paper's core observation: if the recorded miss stream differs
	// from the actual access stream (cache filtering), replay misses
	// blocks. Record 10,30,50 (filtered stream: 20,40 hit that day),
	// then check that 20 and 40 are never prefetched.
	tifs := NewTIFS(DefaultTIFSConfig())
	iss := newFakeIssuer()
	for _, b := range []isa.Block{10, 30, 50, 200, 201} {
		missAt(tifs, iss, b)
	}
	iss2 := newFakeIssuer()
	missAt(tifs, iss2, 10)
	if iss2.got(20) || iss2.got(40) {
		t.Error("TIFS cannot know filtered blocks — test harness broken")
	}
	if !iss2.got(30) || !iss2.got(50) {
		t.Error("recorded blocks should be prefetched")
	}
}

func TestTIFSName(t *testing.T) {
	if NewTIFS(DefaultTIFSConfig()).Name() != "TIFS" {
		t.Error("bad name")
	}
}
