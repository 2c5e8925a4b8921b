package workload

import (
	"runtime"
	"sync"
	"weak"
)

// The process-wide program cache behind ProgramFor. It maps each profile
// to the entry that builds its image once and then remembers it weakly:
// the cache never keeps an image alive, so an image lives exactly as long
// as some caller holds it, and a collected image's cleanup removes its
// entry. Images are immutable and a pure function of their profile, so no
// result can depend on whether a call hit the cache.
var (
	programsMu sync.Mutex
	programs   = map[Profile]*programEntry{}
)

// programEntry is one profile's single-flight build slot.
type programEntry struct {
	key  Profile
	once sync.Once
	img  weak.Pointer[Program]
}

// ProgramFor returns the program image for p, building it only when no
// caller still holds one. Concurrent callers for one profile share a
// single build, and every caller holding the image gets the same pointer.
// The image equals BuildProgram(p)'s; it is read-only and safe to share
// across goroutines.
func ProgramFor(p Profile) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for {
		programsMu.Lock()
		e := programs[p]
		if e == nil {
			e = &programEntry{key: p}
			programs[p] = e
		}
		programsMu.Unlock()
		if prog := e.get(); prog != nil {
			return prog, nil
		}
		// The entry's image was collected before its cleanup ran: retire
		// the entry (unless another caller already replaced it) and build
		// afresh.
		e.drop()
	}
}

// get returns the entry's image, building it on first use, or nil once
// the image has been collected.
func (e *programEntry) get() *Program {
	var built *Program
	e.once.Do(func() {
		built = build(e.key)
		e.img = weak.Make(built)
		runtime.AddCleanup(built, (*programEntry).drop, e)
	})
	if built != nil {
		return built
	}
	return e.img.Value()
}

// drop removes e from the cache if it is still the entry for its key, so
// a collected image's late cleanup never removes a newer entry.
func (e *programEntry) drop() {
	programsMu.Lock()
	if programs[e.key] == e {
		delete(programs, e.key)
	}
	programsMu.Unlock()
}
