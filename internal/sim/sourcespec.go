package sim

import (
	"fmt"

	"repro/internal/trace"
)

// SourceSpec is the wire form of a Source: a plain JSON-serializable
// value naming the trace store to replay, so a remote worker can rebuild
// the source locally. Only the built-in store and slice sources
// serialize; any other Source implementation has no spec and must run
// on a local backend. A job with no source needs no spec: the worker
// executes the job's workload live.
type SourceSpec struct {
	// Kind is the source family: "store" or "slice".
	Kind string `json:"kind"`
	// Path is the trace-store directory. It is resolved on the machine
	// that opens the source — remote workers must share the store
	// (common filesystem or identical local copy).
	Path string `json:"path,omitempty"`
	// Window is the record window for slice sources.
	Window trace.Window `json:"window,omitzero"`
}

// SpecOf extracts the wire form of a source. ok is false for sources
// with no serializable identity (any Source other than StoreSource and
// SliceSource); such jobs cannot be dispatched remotely. A nil source
// has no spec.
func SpecOf(s Source) (SourceSpec, bool) {
	switch src := s.(type) {
	case storeSource:
		return SourceSpec{Kind: "store", Path: src.dir}, true
	case sliceSource:
		return SourceSpec{Kind: "slice", Path: src.dir, Window: src.w}, true
	default:
		return SourceSpec{}, false
	}
}

// New rebuilds the Source a spec names. The inverse of SpecOf:
// SpecOf(spec.New()) round-trips.
func (sp SourceSpec) New() (Source, error) {
	switch sp.Kind {
	case "store":
		if sp.Path == "" {
			return nil, fmt.Errorf("sim: store source spec has no path")
		}
		return StoreSource(sp.Path), nil
	case "slice":
		if sp.Path == "" {
			return nil, fmt.Errorf("sim: slice source spec has no path")
		}
		return SliceSource(sp.Path, sp.Window), nil
	default:
		return nil, fmt.Errorf("sim: unknown source spec kind %q", sp.Kind)
	}
}
