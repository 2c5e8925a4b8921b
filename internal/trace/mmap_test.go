package trace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMmapStoreParity asserts the mmap and ReadFile chunk sources decode
// identical streams, and that kind reporting matches the requested mode.
func TestMmapStoreParity(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	const perChunk = 64
	s := synthStream(21, 3*perChunk+7)
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", perChunk, s)

	for _, mode := range []ChunkSourceMode{ChunkSourceMmap, ChunkSourceReadFile} {
		r, err := OpenStoreMode(dir, mode)
		if err != nil {
			t.Fatalf("OpenStoreMode(%d): %v", mode, err)
		}
		wantKind := "mmap"
		if mode == ChunkSourceReadFile {
			wantKind = "readfile"
		}
		if got := r.ChunkSourceKind(); got != wantKind {
			t.Errorf("mode %d: ChunkSourceKind = %q, want %q", mode, got, wantKind)
		}
		got, err := Collect(r)
		if err != nil {
			t.Fatalf("mode %d: Collect: %v", mode, err)
		}
		if len(got) != len(s) {
			t.Fatalf("mode %d: len = %d, want %d", mode, len(got), len(s))
		}
		for i := range s {
			if got[i] != s[i] {
				t.Fatalf("mode %d: record %d = %+v, want %+v", mode, i, got[i], s[i])
			}
		}
		if err := r.Close(); err != nil {
			t.Errorf("mode %d: Close: %v", mode, err)
		}
	}
}

// TestMmapSeekCloseMidDecode exercises the lifetime rules: seeking away
// mid-chunk unmaps the old chunk and keeps decoding correctly, and a
// reader used after Close reports clean errors instead of touching an
// unmapped page. Run under -race in CI.
func TestMmapSeekCloseMidDecode(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	const perChunk = 32
	s := synthStream(22, 4*perChunk)
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", perChunk, s)

	r, err := OpenStoreMode(dir, ChunkSourceMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]Record, 10)
	if _, err := r.NextBatch(buf); err != nil {
		t.Fatalf("NextBatch: %v", err)
	}
	// Seek mid-decode: the current chunk's mapping is released, yet the
	// stream continues exactly at the new position.
	const pos = 2*perChunk + 5
	if err := r.Seek(pos); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("Next after Seek: %v", err)
	}
	if rec != s[pos] {
		t.Fatalf("record after Seek = %+v, want %+v", rec, s[pos])
	}
	// Close mid-decode, then keep calling: every entry point must fail
	// or EOF cleanly, never fault on unmapped pages.
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("Next after Close succeeded")
	}
	if _, err := r.NextBatch(buf); err == nil {
		t.Error("NextBatch after Close succeeded")
	}
}

// TestMmapChunkUseAfterClose asserts a mapped ChunkReader tolerates use
// (and repeated Close) after its mapping is released.
func TestMmapChunkUseAfterClose(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	const perChunk = 32
	s := synthStream(23, perChunk)
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", perChunk, s)
	ix, err := ReadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenChunkFrom(mmapSource{dir}, ix, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err != nil {
		t.Fatalf("Next: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Next(); err == nil {
		t.Error("Next after Close succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMmapTruncatedChunkParity asserts the mmap path surfaces the same
// corruption diagnostics as the ReadFile path for truncated and
// trailing-garbage chunk files.
func TestMmapTruncatedChunkParity(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	const perChunk = 64
	s := synthStream(24, 2*perChunk)
	base := t.TempDir()

	damage := []struct {
		name string
		cut  func(size int64) int64
	}{
		{"short-header", func(int64) int64 { return chunkHeaderSize - 4 }},
		{"mid-record", func(size int64) int64 { return chunkHeaderSize + (size-chunkHeaderSize)/2 }},
	}
	for _, d := range damage {
		dir := filepath.Join(base, d.name)
		writeStore(t, dir, "wl", perChunk, s)
		path := filepath.Join(dir, ChunkFileName(1))
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, d.cut(fi.Size())); err != nil {
			t.Fatal(err)
		}
		errs := make(map[string]string)
		for _, mode := range []ChunkSourceMode{ChunkSourceMmap, ChunkSourceReadFile} {
			r, err := OpenStoreMode(dir, mode)
			if err != nil {
				t.Fatalf("%s mode %d: OpenStoreMode: %v", d.name, mode, err)
			}
			_, err = Collect(r)
			if err == nil {
				t.Fatalf("%s mode %d: Collect succeeded on damaged store", d.name, mode)
			}
			errs[fmt.Sprint(mode)] = err.Error()
			r.Close()
		}
		if a, b := errs["1"], errs["2"]; a != b {
			t.Errorf("%s: error mismatch\n  mmap:     %s\n  readfile: %s", d.name, a, b)
		}
	}
}

// TestMmapForcedFallback denies the mmap syscall via the test hook:
// auto mode must fall back to ReadFile and still replay, explicit mmap
// mode must refuse, and a post-probe per-chunk failure must degrade to
// a heap read without corrupting the stream.
func TestMmapForcedFallback(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	const perChunk = 32
	s := synthStream(25, 2*perChunk+3)
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", perChunk, s)

	real := mmapChunk
	defer func() { mmapChunk = real }()

	// Total denial: auto falls back, explicit mmap refuses.
	mmapChunk = func(f *os.File, size int) ([]byte, func(), error) {
		return nil, nil, errors.New("mmap denied")
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore under denial: %v", err)
	}
	if got := r.ChunkSourceKind(); got != "readfile" {
		t.Errorf("ChunkSourceKind under denial = %q, want readfile", got)
	}
	if _, err := Collect(r); err != nil {
		t.Errorf("Collect on fallback: %v", err)
	}
	r.Close()
	if _, err := OpenStoreMode(dir, ChunkSourceMmap); err == nil {
		t.Error("OpenStoreMode(mmap) succeeded under denial")
	} else if !strings.Contains(err.Error(), "mmap") {
		t.Errorf("OpenStoreMode(mmap) error = %v, want mmap mention", err)
	}

	// Probe passes, later maps fail: the per-chunk degrade path must
	// deliver the identical stream.
	calls := 0
	mmapChunk = func(f *os.File, size int) ([]byte, func(), error) {
		calls++
		if calls > 1 {
			return nil, nil, errors.New("mmap denied after probe")
		}
		return real(f, size)
	}
	r, err = OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if got := r.ChunkSourceKind(); got != "mmap" {
		t.Errorf("ChunkSourceKind = %q, want mmap", got)
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatalf("Collect with degraded chunks: %v", err)
	}
	if len(got) != len(s) {
		t.Fatalf("len = %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], s[i])
		}
	}
	r.Close()
}
