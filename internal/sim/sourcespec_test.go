package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestSourceSpecRoundTrip checks SpecOf/New inverse pairs for every
// serializable source family, through JSON (the wire form the remote
// backend ships).
func TestSourceSpecRoundTrip(t *testing.T) {
	sources := []Source{
		StoreSource("/tmp/traces/oltp"),
		SliceSource("/tmp/traces/oltp", trace.Window{Off: 128, Len: 4096}),
	}
	for _, src := range sources {
		spec, ok := SpecOf(src)
		if !ok {
			t.Fatalf("SpecOf(%T) not serializable", src)
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back SourceSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		rebuilt, err := back.New()
		if err != nil {
			t.Fatalf("New(%s): %v", b, err)
		}
		spec2, ok := SpecOf(rebuilt)
		if !ok {
			t.Fatalf("rebuilt %T not serializable", rebuilt)
		}
		if spec != spec2 {
			t.Errorf("round trip changed spec: %+v -> %+v", spec, spec2)
		}
	}
}

// TestSourceSpecOpaqueSources asserts that sources outside the built-in
// store and slice families have no wire form — the remote backend must
// reject them, not misroute them.
func TestSourceSpecOpaqueSources(t *testing.T) {
	for _, src := range []Source{nil, openerSource(func() (trace.BatchIterator, error) { return nil, nil })} {
		if spec, ok := SpecOf(src); ok {
			t.Errorf("SpecOf(%T) = %+v, want not serializable", src, spec)
		}
	}
}

// TestSourceSpecBadSpecs checks New's validation. The retired "live"
// kind is an unknown kind like any other.
func TestSourceSpecBadSpecs(t *testing.T) {
	bad := []SourceSpec{
		{Kind: "live"},
		{Kind: "store"},
		{Kind: "slice"},
		{Kind: "teleport"},
		{},
	}
	for _, sp := range bad {
		if _, err := sp.New(); err == nil {
			t.Errorf("spec %+v accepted", sp)
		}
	}
	if _, err := (SourceSpec{Kind: "live"}).New(); err == nil || !strings.Contains(err.Error(), "unknown source spec kind") {
		t.Errorf("live spec error = %v, want an unknown-kind error", err)
	}
}
