package workload

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// collect runs n instructions of p's shared program image.
func collect(tb testing.TB, p Profile, n uint64) trace.Stream {
	tb.Helper()
	prog, err := ProgramFor(p)
	if err != nil {
		tb.Fatal(err)
	}
	return Collect(prog, n)
}

func TestProfileValidation(t *testing.T) {
	for _, p := range StandardSuite() {
		if err := p.Validate(); err != nil {
			t.Errorf("standard profile %s invalid: %v", p.Name, err)
		}
	}
	bad := OLTPDB2()
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	bad = OLTPDB2()
	bad.TxTypes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero TxTypes accepted")
	}
	bad = OLTPDB2()
	bad.InterruptEvery = 100
	bad.HandlerFuncs = 0
	if err := bad.Validate(); err == nil {
		t.Error("interrupts without handlers accepted")
	}
	bad = OLTPDB2()
	bad.TxSkew = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero TxSkew accepted")
	}
}

// A NaN or infinite float field must fail validation: a NaN passes every
// range check (and panics the executor later), and it makes the profile
// unequal to itself, so a cache keyed by profile could never find it.
func TestProfileValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Profile, float64)
	}{
		{"TxSkew", func(p *Profile, v float64) { p.TxSkew = v }},
		{"MonoCallFrac", func(p *Profile, v float64) { p.MonoCallFrac = v }},
		{"CallSitesPerFunc", func(p *Profile, v float64) { p.CallSitesPerFunc = v }},
		{"SharedCallBias", func(p *Profile, v float64) { p.SharedCallBias = v }},
		{"LoopsPerFunc", func(p *Profile, v float64) { p.LoopsPerFunc = v }},
		{"CondSkipsPerFunc", func(p *Profile, v float64) { p.CondSkipsPerFunc = v }},
		{"SkipTakenProb", func(p *Profile, v float64) { p.SkipTakenProb = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := DSSQry2()
			f.set(&p, v)
			if err := p.Validate(); err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			}
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("OLTP DB2")
	if err != nil || p.Name != "OLTP DB2" {
		t.Errorf("ByName: %v %v", p.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestStandardSuiteHasSix(t *testing.T) {
	suite := StandardSuite()
	if len(suite) != 6 {
		t.Fatalf("suite size = %d, want 6", len(suite))
	}
	suites := map[string]int{}
	for _, p := range suite {
		suites[p.Suite]++
	}
	for _, s := range []string{"OLTP", "DSS", "Web"} {
		if suites[s] != 2 {
			t.Errorf("suite %s has %d workloads, want 2", s, suites[s])
		}
	}
}

func TestXLSuite(t *testing.T) {
	xl := XLSuite()
	if len(xl) != 2 {
		t.Fatalf("XL suite size = %d, want 2", len(xl))
	}
	for _, p := range xl {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		got, err := ByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Errorf("ByName(%q) = %v, %v", p.Name, got.Name, err)
		}
	}
}

// TestXLFootprints locks the XL suite's reason to exist: each XL program
// image must be at least 4x the largest standard footprint, so the
// design-space sweeps keep differentiating where the standard six
// saturate.
func TestXLFootprints(t *testing.T) {
	if testing.Short() {
		t.Skip("program builds skipped in -short mode")
	}
	maxStd := 0
	for _, p := range StandardSuite() {
		prog, err := BuildProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if prog.FootprintBlks > maxStd {
			maxStd = prog.FootprintBlks
		}
	}
	for _, p := range XLSuite() {
		prog, err := BuildProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if prog.FootprintBlks < 4*maxStd {
			t.Errorf("%s footprint %d blocks < 4x largest standard (%d)", p.Name, prog.FootprintBlks, maxStd)
		}
	}
}

func TestBuildProgramDeterministic(t *testing.T) {
	a, err := BuildProgram(OLTPDB2())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildProgram(OLTPDB2())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Funcs) != len(b.Funcs) {
		t.Fatalf("function counts differ: %d vs %d", len(a.Funcs), len(b.Funcs))
	}
	for i := range a.Funcs {
		if a.Funcs[i].Base != b.Funcs[i].Base || a.Funcs[i].Instrs != b.Funcs[i].Instrs {
			t.Fatalf("func %d differs", i)
		}
	}
}

func TestBuildProgramPartitions(t *testing.T) {
	p := OLTPDB2()
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if prog.AppEnd != p.Funcs {
		t.Errorf("AppEnd = %d, want %d", prog.AppEnd, p.Funcs)
	}
	if prog.SharedEnd-prog.AppEnd != p.SharedFuncs {
		t.Errorf("shared funcs = %d, want %d", prog.SharedEnd-prog.AppEnd, p.SharedFuncs)
	}
	if prog.HandlerEnd-prog.SharedEnd != p.HandlerFuncs {
		t.Errorf("handler funcs = %d, want %d", prog.HandlerEnd-prog.SharedEnd, p.HandlerFuncs)
	}
	for i, f := range prog.Funcs {
		if f.Handler != (i >= prog.SharedEnd) {
			t.Fatalf("func %d handler flag wrong", i)
		}
		if f.Base%isa.BlockBytes != 0 {
			t.Fatalf("func %d not block aligned: %v", i, f.Base)
		}
		if f.Instrs <= 0 {
			t.Fatalf("func %d has %d instrs", i, f.Instrs)
		}
	}
}

// TestProgramImagePointerFree keeps the image's arenas out of the garbage
// collector's scan: no element of Program.Funcs, Program.ops or
// Program.targets may hold anything the collector traces.
func TestProgramImagePointerFree(t *testing.T) {
	prog := reflect.TypeFor[Program]()
	for _, name := range []string{"Funcs", "ops", "targets"} {
		f, ok := prog.FieldByName(name)
		if !ok || f.Type.Kind() != reflect.Slice {
			t.Errorf("Program has no %s arena", name)
			continue
		}
		if path := traced(f.Type.Elem(), "Program."+name+"[i]"); path != "" {
			t.Errorf("%s is traced by the garbage collector", path)
		}
	}
}

// traced returns the path to the first part of typ the garbage collector
// must scan, or "" when there is none.
func traced(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := traced(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		return traced(typ.Elem(), path+"[i]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return path + " (" + typ.Kind().String() + ")"
	}
	return ""
}

// TestBuildProgramAllocs bounds one build's allocations: the image is a
// handful of flat arrays, not one object per function and op.
func TestBuildProgramAllocs(t *testing.T) {
	const maxAllocs = 64
	p := OLTPDB2()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := BuildProgram(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("BuildProgram(%s) makes %.0f allocations, want at most %d", p.Name, allocs, maxAllocs)
	}
}

func TestFootprintExceedsL1(t *testing.T) {
	// The premise of the paper: instruction working sets far larger than
	// a 64KB L1-I (1024 blocks).
	for _, p := range StandardSuite() {
		prog, err := BuildProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if prog.FootprintBlks < 4*1024 {
			t.Errorf("%s footprint %d blocks; want > 4096 (256KB)", p.Name, prog.FootprintBlks)
		}
	}
}

func TestFunctionsDoNotOverlap(t *testing.T) {
	prog, err := BuildProgram(WebApache())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(prog.Funcs); i++ {
		prev, cur := prog.Funcs[i-1], prog.Funcs[i]
		if cur.Base == 0 {
			continue
		}
		prevEnd := prev.Base.Plus(prev.Instrs)
		// Segments restart at fixed bases; only check within a segment.
		if cur.Base > prev.Base && cur.Base < prevEnd {
			t.Fatalf("func %d overlaps func %d", i, i-1)
		}
	}
}

func TestExecutorDeterministic(t *testing.T) {
	s1 := collect(t, DSSQry2(), 20000)
	s2 := collect(t, DSSQry2(), 20000)
	if len(s1) != len(s2) {
		t.Fatalf("lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("records differ at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func TestExecutorMeetsBudget(t *testing.T) {
	s := collect(t, OLTPDB2(), 50000)
	if uint64(len(s)) < 50000 {
		t.Errorf("stream has %d records, want >= 50000", len(s))
	}
	// Budget overshoot should be tiny (stop is at instruction grain).
	if uint64(len(s)) > 50001 {
		t.Errorf("stream overshoot: %d records", len(s))
	}
}

func TestStreamPCsAreInstructionAligned(t *testing.T) {
	s := collect(t, WebZeus(), 30000)
	for i, r := range s {
		if r.PC%isa.InstrBytes != 0 {
			t.Fatalf("record %d PC %v not aligned", i, r.PC)
		}
	}
}

func TestStreamHasInterrupts(t *testing.T) {
	s := collect(t, OLTPOracle(), 200000)
	var tl1, entries, returns int
	for _, r := range s {
		if r.TL == isa.TL1 {
			tl1++
		}
		if r.Flags.Has(trace.FlagTrapEntry) {
			entries++
		}
		if r.Flags.Has(trace.FlagTrapReturn) {
			returns++
		}
	}
	if entries == 0 || tl1 == 0 {
		t.Fatalf("no interrupts observed: tl1=%d entries=%d", tl1, entries)
	}
	if diff := entries - returns; diff < -1 || diff > 1 {
		t.Errorf("trap entries %d vs returns %d unbalanced", entries, returns)
	}
	// TL1 share should be small but non-trivial.
	frac := float64(tl1) / float64(len(s))
	if frac < 0.001 || frac > 0.2 {
		t.Errorf("TL1 fraction = %f, want in [0.001, 0.2]", frac)
	}
}

func TestTrapEntryOnlyAtTL1(t *testing.T) {
	s := collect(t, OLTPDB2(), 100000)
	for i, r := range s {
		if r.Flags.Has(trace.FlagTrapEntry) && r.TL != isa.TL1 {
			t.Fatalf("record %d has TrapEntry at TL0", i)
		}
		if r.Flags.Has(trace.FlagTrapReturn) && r.TL != isa.TL0 {
			t.Fatalf("record %d has TrapReturn at TL1", i)
		}
	}
}

func TestStreamHasBranchesAndCalls(t *testing.T) {
	s := collect(t, OLTPDB2(), 100000)
	var cond, taken, calls int
	for _, r := range s {
		if r.Flags.Has(trace.FlagCondBranch) {
			cond++
			if r.Flags.Has(trace.FlagBranchTaken) {
				taken++
			}
		}
		if r.Flags.Has(trace.FlagCallTarget) {
			calls++
		}
	}
	if cond == 0 || calls == 0 {
		t.Fatalf("stream lacks control flow: cond=%d calls=%d", cond, calls)
	}
	if taken == 0 || taken == cond {
		t.Errorf("conditional branches all one direction: %d/%d", taken, cond)
	}
}

func TestControlFlowConsistency(t *testing.T) {
	// A non-taken conditional branch must fall through to PC+4 unless an
	// interrupt intervened; a taken one must not.
	s := collect(t, DSSQry17(), 100000)
	for i := 0; i+1 < len(s); i++ {
		r, next := s[i], s[i+1]
		if !r.Flags.Has(trace.FlagCondBranch) || r.TL != next.TL {
			continue
		}
		fallthru := next.PC == r.PC.Plus(1)
		if r.Flags.Has(trace.FlagBranchTaken) && fallthru {
			t.Fatalf("record %d: taken branch fell through", i)
		}
		if !r.Flags.Has(trace.FlagBranchTaken) && !fallthru {
			t.Fatalf("record %d: not-taken branch jumped (PC %v -> %v)", i, r.PC, next.PC)
		}
	}
}

func TestStreamIsRepetitive(t *testing.T) {
	// The core premise: the retire-order block stream revisits the same
	// blocks heavily (working set << dynamic stream length).
	s := collect(t, OLTPDB2(), 500000)
	blocks := s.Blocks()
	uniq := map[isa.Block]struct{}{}
	for _, b := range blocks {
		uniq[b] = struct{}{}
	}
	reuse := float64(len(blocks)) / float64(len(uniq))
	if reuse < 3 {
		t.Errorf("block reuse factor = %.1f, want >= 3 (repetitive stream)", reuse)
	}
}

func TestExecutorResume(t *testing.T) {
	// Two Run calls should continue the stream, not restart it.
	prog, err := BuildProgram(DSSQry2())
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(prog)
	var first, second trace.Stream
	ex.Run(1000, func(r trace.Record) { first = append(first, r) })
	ex.Run(1000, func(r trace.Record) { second = append(second, r) })
	if ex.Emitted() < 2000 {
		t.Fatalf("Emitted = %d, want >= 2000", ex.Emitted())
	}
	if len(second) == 0 {
		t.Fatal("second run emitted nothing")
	}
	// A fresh executor run of 2000+ should start with `first` as prefix.
	ex2 := NewExecutor(prog)
	var all trace.Stream
	ex2.Run(2000, func(r trace.Record) { all = append(all, r) })
	for i := range first {
		if all[i] != first[i] {
			t.Fatalf("resume changed prefix at %d", i)
		}
	}
}

func TestOpLen(t *testing.T) {
	run := op{kind: opRun, n: 7}
	if opLen(&run) != 7 {
		t.Errorf("opRun len = %d", opLen(&run))
	}
	call := op{kind: opCall, tLen: 1}
	if opLen(&call) != 1 {
		t.Errorf("opCall len = %d", opLen(&call))
	}
	skip := op{kind: opCondSkip, n: 5}
	if opLen(&skip) != 1 {
		t.Errorf("opCondSkip len = %d", opLen(&skip))
	}
	// A loop lays out its body run, its helper call and its back edge.
	loop := op{kind: opLoop, n: 7, tLen: 1}
	if opLen(&loop) != 9 {
		t.Errorf("opLoop len = %d, want 9", opLen(&loop))
	}
	bare := op{kind: opLoop, n: 7}
	if opLen(&bare) != 8 {
		t.Errorf("opLoop without a call len = %d, want 8", opLen(&bare))
	}
}

func TestWorkloadsDiffer(t *testing.T) {
	a := collect(t, OLTPDB2(), 10000)
	b := collect(t, WebApache(), 10000)
	same := 0
	n := minInt(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i].PC == b[i].PC {
			same++
		}
	}
	if same == n {
		t.Error("different workloads produced identical streams")
	}
}
