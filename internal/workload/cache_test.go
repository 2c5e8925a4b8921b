package workload

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// cached reports whether the program cache holds an entry for p.
func cached(p Profile) bool {
	programsMu.Lock()
	defer programsMu.Unlock()
	_, ok := programs[p]
	return ok
}

// cacheProfile returns a small profile with a seed no other test uses, so
// its cache entry belongs to the calling test alone.
func cacheProfile(seed int64) Profile {
	p := DSSQry2()
	p.Seed = seed
	return p
}

func TestProgramForSingleFlight(t *testing.T) {
	p := cacheProfile(0xca01)
	const n = 8
	got := make([]*Program, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := ProgramFor(p)
			if err != nil {
				t.Error(err)
			}
			got[i] = prog
		}()
	}
	wg.Wait()
	for i, prog := range got {
		if prog == nil || prog != got[0] {
			t.Fatalf("goroutine %d got image %p, goroutine 0 got %p", i, prog, got[0])
		}
	}
}

func TestProgramForReturnsHeldImage(t *testing.T) {
	p := cacheProfile(0xca02)
	a, err := ProgramFor(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProgramFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("a held image was rebuilt: %p then %p", a, b)
	}
	runtime.KeepAlive(a)
}

func TestProgramForKeysWholeProfile(t *testing.T) {
	p := cacheProfile(0xca03)
	q := p
	q.Seed++
	a, err := ProgramFor(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProgramFor(q)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two seeds of one workload name share an image")
	}
	if a.Profile != p || b.Profile != q {
		t.Fatalf("images built for seeds %d and %d, want %d and %d", a.Profile.Seed, b.Profile.Seed, p.Seed, q.Seed)
	}
}

// Once its last holder drops an image, the image's cleanup removes the
// cache entry, and the next call builds an equal image afresh.
func TestProgramForRebuildsAfterCollection(t *testing.T) {
	p := cacheProfile(0xca04)
	want, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	checkProgramFor(t, p, want)
	for i := 0; cached(p); i++ {
		if i == 100 {
			t.Fatal("entry still cached after 100 GC cycles with no holder")
		}
		runtime.GC()
	}
	checkProgramFor(t, p, want)
}

// checkProgramFor asserts ProgramFor(p) equals want, and holds the image
// only until it returns.
func checkProgramFor(t *testing.T, p Profile, want *Program) {
	t.Helper()
	got, err := ProgramFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if got == want {
		t.Fatal("ProgramFor returned the caller's own BuildProgram image")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached image differs from BuildProgram's")
	}
}

// A caller that finds an entry whose image is gone but whose cleanup has
// not yet run replaces the entry and builds again.
func TestProgramForReplacesCollectedEntry(t *testing.T) {
	p := cacheProfile(0xca07)
	stale := &programEntry{key: p}
	stale.once.Do(func() {}) // built, and its image already collected
	programsMu.Lock()
	programs[p] = stale
	programsMu.Unlock()
	prog, err := ProgramFor(p)
	if err != nil || prog == nil {
		t.Fatalf("ProgramFor over a collected entry = %v, %v", prog, err)
	}
	programsMu.Lock()
	e := programs[p]
	programsMu.Unlock()
	if e == nil || e == stale {
		t.Fatal("the collected entry was not replaced")
	}
	// The stale entry's late cleanup must leave the newer entry alone.
	stale.drop()
	if !cached(p) {
		t.Fatal("a stale entry's cleanup removed the newer entry")
	}
	runtime.KeepAlive(prog)
}

func TestProgramForInvalidProfile(t *testing.T) {
	for _, p := range []Profile{
		func() Profile { p := cacheProfile(0xca05); p.Funcs = 0; return p }(),
		func() Profile { p := cacheProfile(0xca06); p.TxSkew = math.NaN(); return p }(),
	} {
		want := p.Validate()
		prog, err := ProgramFor(p)
		if prog != nil || err == nil || err.Error() != want.Error() {
			t.Errorf("ProgramFor(invalid) = %v, %v; want nil, %v", prog, err, want)
		}
		// A NaN key never equals itself, so look for the seed, not the key.
		programsMu.Lock()
		n := 0
		for k := range programs {
			if k.Seed == p.Seed {
				n++
			}
		}
		programsMu.Unlock()
		if n != 0 {
			t.Errorf("invalid profile (seed %#x) left %d cache entries", p.Seed, n)
		}
	}
}
