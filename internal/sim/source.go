package sim

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// Source is the factory half of the unified pipeline API: a value that
// names *what to simulate* — a recorded trace store or a window of one —
// independently of the engine simulating it and the backend running it.
// A job with no Source executes its workload live. Jobs carry Sources
// instead of open iterators because sources, like prefetch engines, are
// stateful once opened: every job opens its own private iterator, so any
// number of jobs can replay the same trace concurrently.
//
// Open may be called any number of times; each call returns a fresh
// batch iterator positioned at the source's first record. Iterators that
// implement io.Closer are closed by the consumer (RunJob closes what it
// opens). The context is accepted for forward compatibility with remote
// sources; the built-in constructors never block on it.
type Source interface {
	Open(ctx context.Context) (trace.BatchIterator, SourceInfo, error)
}

// SourceInfo describes an opened source: enough metadata for the
// consumer to validate the stream before burning cycles on it (record
// budget, workload identity) and for labels and persisted results to say
// what was replayed.
type SourceInfo struct {
	// Kind is the source family: "store" or "slice".
	Kind string
	// Workload is the workload name the stream was recorded from, when
	// the source knows it ("" otherwise).
	Workload string
	// Records is the number of records the source can supply, when known
	// up front (0 = unknown or unbounded).
	Records uint64
	// Path is the trace-store directory for on-disk sources.
	Path string
	// Window is the record window for slice sources (zero otherwise).
	Window trace.Window
}

// String renders the info for labels and error messages.
func (si SourceInfo) String() string {
	switch si.Kind {
	case "slice":
		return fmt.Sprintf("slice %s of %s", si.Window, si.Path)
	case "store":
		return fmt.Sprintf("store %s", si.Path)
	default:
		return si.Kind
	}
}

// Slicer is implemented by sources that can address a contiguous
// sub-range of their records: sharded sweep execution slices a cell's
// source into per-shard windows (sweep.Settings.Shards), so any source
// implementing Slicer can be sharded. w.Off is relative to the source's
// own first record; slicing composes, so a slice of a slice addresses
// the grand-parent range. Out-of-range windows are an error — at Slice
// time when the source knows its length, otherwise at Open.
type Slicer interface {
	Source
	Slice(w trace.Window) (Source, error)
}

// storeSource replays a sharded on-disk trace store from record 0.
type storeSource struct{ dir string }

// StoreSource returns the source replaying the sharded trace store at
// dir from its first record (see trace.OpenStore).
func StoreSource(dir string) Source { return storeSource{dir} }

// Open implements Source.
func (s storeSource) Open(ctx context.Context) (trace.BatchIterator, SourceInfo, error) {
	r, err := trace.OpenStore(s.dir)
	if err != nil {
		return nil, SourceInfo{}, err
	}
	ix := r.Index()
	return r, SourceInfo{
		Kind:     "store",
		Workload: ix.Workload,
		Records:  ix.Records(),
		Path:     s.dir,
	}, nil
}

// Slice implements Slicer: a window of a whole-store source is a slice
// source; the store index validates bounds when the slice opens.
func (s storeSource) Slice(w trace.Window) (Source, error) {
	return SliceSource(s.dir, w), nil
}

// sliceSource replays one window of a sharded store.
type sliceSource struct {
	dir string
	w   trace.Window
}

// SliceSource returns the source replaying only window w of the sharded
// trace store at dir: the store index locates the owning chunk and
// replay starts there (trace.OpenSlice on StoreReader.Seek), so sweeping
// many windows of one trace never re-executes the workload and never
// decodes more than each window's chunks. A window reaching outside the
// recorded range is a hard error at Open.
func SliceSource(dir string, w trace.Window) Source { return sliceSource{dir, w} }

// Open implements Source.
func (s sliceSource) Open(ctx context.Context) (trace.BatchIterator, SourceInfo, error) {
	r, err := trace.OpenSlice(s.dir, s.w)
	if err != nil {
		return nil, SourceInfo{}, err
	}
	return r, SourceInfo{
		Kind:     "slice",
		Workload: r.Workload(),
		Records:  s.w.Len,
		Path:     s.dir,
		Window:   s.w,
	}, nil
}

// Slice implements Slicer: windows compose, so a slice of a slice
// re-addresses the store with the offsets added. The sub-window must
// lie inside this slice's own range.
func (s sliceSource) Slice(w trace.Window) (Source, error) {
	if w.End() > s.w.Len {
		return nil, fmt.Errorf("sim: slice window %s exceeds source window %s", w, s.w)
	}
	return SliceSource(s.dir, trace.Window{Off: s.w.Off + w.Off, Len: w.Len}), nil
}
