package frontend

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// feed runs a fresh front end over s and returns its access stream.
func feed(t *testing.T, s trace.Stream) []Access {
	t.Helper()
	fe := New(DefaultConfig())
	var out []Access
	for _, r := range s {
		fe.Feed(r, func(a Access) { out = append(out, a) })
	}
	return out
}

func TestSequentialRunEmitsPerBlock(t *testing.T) {
	// 48 sequential instructions = 3 blocks → exactly 3 accesses.
	var s trace.Stream
	for i := 0; i < 48; i++ {
		s = append(s, trace.Record{PC: isa.Addr(0x1000).Plus(i)})
	}
	acc := feed(t, s)
	if len(acc) != 3 {
		t.Fatalf("accesses = %d, want 3", len(acc))
	}
	for i, a := range acc {
		if a.WrongPath {
			t.Errorf("access %d marked wrong-path", i)
		}
		if a.Block != isa.BlockOf(0x1000)+isa.Block(i) {
			t.Errorf("access %d block = %v", i, a.Block)
		}
	}
}

func TestTightLoopReaccessesBlock(t *testing.T) {
	// A taken branch looping within one block must re-access the block
	// each iteration (the fetch group restarts).
	var s trace.Stream
	for it := 0; it < 4; it++ {
		s = append(s, trace.Record{PC: 0x2000})
		s = append(s, trace.Record{PC: 0x2004, Flags: trace.FlagCondBranch | trace.FlagBranchTaken})
	}
	s = append(s, trace.Record{PC: 0x2000})
	acc := feed(t, s)
	count := 0
	for _, a := range acc {
		if !a.WrongPath && a.Block == isa.BlockOf(0x2000) {
			count++
		}
	}
	if count < 4 {
		t.Errorf("loop block accessed %d times, want >= 4", count)
	}
}

func TestWrongPathInjectionOnSurpriseTaken(t *testing.T) {
	// Train a branch not-taken, then take it: the fall-through path
	// should be fetched as wrong-path noise.
	var s trace.Stream
	branch := isa.Addr(0x3000)
	for i := 0; i < 20; i++ {
		s = append(s, trace.Record{PC: branch, Flags: trace.FlagCondBranch}) // not taken
		s = append(s, trace.Record{PC: branch.Plus(1)})
	}
	s = append(s, trace.Record{PC: branch, Flags: trace.FlagCondBranch | trace.FlagBranchTaken})
	s = append(s, trace.Record{PC: 0x9000})
	acc := feed(t, s)
	var wrong []Access
	for _, a := range acc {
		if a.WrongPath {
			wrong = append(wrong, a)
		}
	}
	if len(wrong) == 0 {
		t.Fatal("no wrong-path accesses for surprise taken branch")
	}
	if wrong[0].Block != isa.BlockOf(branch.Plus(1)) {
		t.Errorf("wrong path starts at %v, want fall-through block %v",
			wrong[0].Block, isa.BlockOf(branch.Plus(1)))
	}
}

func TestWrongPathInjectionOnSurpriseNotTaken(t *testing.T) {
	// Train a branch taken (BTB learns target), then fall through: the
	// stale BTB target should be fetched as wrong-path noise.
	var s trace.Stream
	branch := isa.Addr(0x4000)
	target := isa.Addr(0x8000)
	for i := 0; i < 20; i++ {
		s = append(s, trace.Record{PC: branch, Flags: trace.FlagCondBranch | trace.FlagBranchTaken})
		s = append(s, trace.Record{PC: target})
	}
	s = append(s, trace.Record{PC: branch, Flags: trace.FlagCondBranch}) // not taken
	s = append(s, trace.Record{PC: branch.Plus(1)})
	acc := feed(t, s)
	var wrong []Access
	for _, a := range acc {
		if a.WrongPath {
			wrong = append(wrong, a)
		}
	}
	if len(wrong) == 0 {
		t.Fatal("no wrong-path accesses for surprise not-taken branch")
	}
	if wrong[len(wrong)-1].Block < isa.BlockOf(target) {
		t.Errorf("wrong path should fetch BTB target region, got %v", wrong[len(wrong)-1].Block)
	}
}

func TestWellPredictedBranchNoNoise(t *testing.T) {
	// A perfectly repetitive taken branch must not inject noise after
	// warmup.
	var s trace.Stream
	branch := isa.Addr(0x5000)
	target := isa.Addr(0xa000)
	for i := 0; i < 200; i++ {
		s = append(s, trace.Record{PC: branch, Flags: trace.FlagCondBranch | trace.FlagBranchTaken})
		s = append(s, trace.Record{PC: target})
	}
	acc := feed(t, s)
	lateWrong := 0
	for i, a := range acc {
		if a.WrongPath && i > len(acc)/2 {
			lateWrong++
		}
	}
	if lateWrong > 0 {
		t.Errorf("%d wrong-path accesses after warmup on a stable branch", lateWrong)
	}
}

func TestStatsAccounting(t *testing.T) {
	s, err := workload.GenerateStream(workload.OLTPOracle(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	fe := New(DefaultConfig())
	var wrong, correct int
	for _, r := range s {
		fe.Feed(r, func(a Access) {
			if a.WrongPath {
				wrong++
			} else {
				correct++
			}
		})
	}
	st := fe.Stats()
	if st.Fetches != uint64(correct) || st.WrongPathFetches != uint64(wrong) {
		t.Errorf("stats mismatch: %+v vs emitted %d/%d", st, correct, wrong)
	}
	if st.Branches == 0 || st.Mispredicts == 0 {
		t.Errorf("expected branches and mispredicts on a server workload: %+v", st)
	}
	if st.Mispredicts >= st.Branches {
		t.Errorf("mispredicts %d >= branches %d", st.Mispredicts, st.Branches)
	}
	if wrong == 0 {
		t.Error("server workload produced no wrong-path noise")
	}
	// Wrong-path share should be noticeable but not dominant.
	frac := float64(wrong) / float64(wrong+correct)
	if frac < 0.005 || frac > 0.5 {
		t.Errorf("wrong-path fraction = %f, want in [0.005, 0.5]", frac)
	}
}

func TestTransferMarksGroups(t *testing.T) {
	s := trace.Stream{
		{PC: 0x1000},
		{PC: 0x1004, Flags: trace.FlagBranchTaken}, // call
		{PC: 0x8000, Flags: trace.FlagCallTarget},
	}
	acc := feed(t, s)
	if len(acc) < 2 {
		t.Fatalf("accesses = %d", len(acc))
	}
	last := acc[len(acc)-1]
	if last.Block != isa.BlockOf(0x8000) || !last.Transfer {
		t.Errorf("call target access should be a transfer: %+v", last)
	}
}

func TestAccessStreamCoversRetireBlocks(t *testing.T) {
	// Every retired block must appear in the access stream (fetch precedes
	// retirement).
	s, err := workload.GenerateStream(workload.DSSQry2(), 50000)
	if err != nil {
		t.Fatal(err)
	}
	acc := feed(t, s)
	seen := map[isa.Block]bool{}
	for _, a := range acc {
		seen[a.Block] = true
	}
	for i, r := range s {
		if !seen[r.Block()] {
			t.Fatalf("retired block %v (record %d) never fetched", r.Block(), i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	s, err := workload.GenerateStream(workload.WebZeus(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	a, b := feed(t, s), feed(t, s)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

// TestBlockRunEndpointsFeedIdentically: on every standard profile,
// feeding the front end only the first and last record of each same-block
// run (trace.BlockRun) gives the access stream, front-end statistics and
// predictor statistics of feeding every record — the property the
// simulator's block-grain stepping rests on.
func TestBlockRunEndpointsFeedIdentically(t *testing.T) {
	for _, wl := range workload.StandardSuite() {
		s, err := workload.GenerateStream(wl, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Seed = wl.Seed
		every, ends := New(cfg), New(cfg)
		var want, got []Access
		for _, r := range s {
			every.Feed(r, func(a Access) { want = append(want, a) })
		}
		emit := func(a Access) { got = append(got, a) }
		skipped := 0
		for i := 0; i < len(s); i++ {
			ends.Feed(s[i], emit)
			if k := trace.BlockRun(s[i:]); k > 0 {
				i += k
				skipped += k - 1
				ends.Feed(s[i], emit)
			}
		}
		if skipped == 0 {
			t.Errorf("%s: no record skipped; the stream has no runs to test", wl.Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: the endpoint feed's %d accesses differ from the every-record feed's %d", wl.Name, len(got), len(want))
		}
		if g, w := ends.Stats(), every.Stats(); g != w {
			t.Errorf("%s: frontend stats %+v, want %+v", wl.Name, g, w)
		}
		if g, w := ends.bp.Stats(), every.bp.Stats(); g != w {
			t.Errorf("%s: predictor stats %+v, want %+v", wl.Name, g, w)
		}
	}
}
