package report

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"unicode/utf8"
)

// FuzzArtifactRoundTrip drives arbitrary IDs, titles, texts, and JSON data
// payloads through the full store path and asserts Load(Save(x)) == x:
// whatever NewArtifact accepts must survive the write/read cycle with
// every field intact and the canonical data bytes unchanged. Inputs
// NewArtifact rejects (invalid IDs, invalid JSON) are skipped — rejection
// is the contract there.
func FuzzArtifactRoundTrip(f *testing.F) {
	f.Add("fig2", "Recording-point prediction coverage", "table\n", `{"workloads":["OLTP DB2"],"miss":[0.85]}`)
	f.Add("table1", "System parameters", "Table I\n", `{"system":{"Cores":16,"ClockGHz":2},"workloads":[]}`)
	f.Add("fig8", "panels", "", `{"left":{"offsets":[-4,-1,1,12]},"right":{"tl0":[[0.5,1]]}}`)
	f.Add("a", "", "", `null`)
	f.Add("x-1_2.z", "unicode ✓ <html> & escape", "line1\nline2\t", `{"s":"<&> ","n":[1e-9,-0,1.7976931348623157e308]}`)
	f.Add("deep", "t", "x", `[[[[{"a":[{"b":0.1}]}]]]]`)

	f.Fuzz(func(t *testing.T, id, title, text, data string) {
		// encoding/json replaces invalid UTF-8 with U+FFFD on write, so
		// only valid strings can round-trip exactly; that lossiness is
		// encoding/json's documented behavior, not the store's.
		if !utf8.ValidString(title) || !utf8.ValidString(text) {
			t.Skip()
		}
		art, err := NewArtifact(id, title, text, json.RawMessage(data))
		if err != nil {
			t.Skip()
		}
		dir := t.TempDir()
		if err := Save(dir, Run{ID: "fuzz"}, []Artifact{art}, nil); err != nil {
			t.Fatalf("Save(%q): %v", id, err)
		}
		run, arts, err := Load(dir)
		if err != nil {
			t.Fatalf("Load after Save(%q): %v", id, err)
		}
		if run.SchemaVersion != SchemaVersion || len(run.Artifacts) != 1 || run.Artifacts[0] != id {
			t.Fatalf("run metadata mangled: %+v", run)
		}
		if len(arts) != 1 {
			t.Fatalf("got %d artifacts", len(arts))
		}
		got := arts[0]
		if got.SchemaVersion != art.SchemaVersion || got.ID != art.ID || got.Title != art.Title || got.Text != art.Text {
			t.Fatalf("fields not round-tripped:\nsaved:  %+v\nloaded: %+v", art, got)
		}
		if !bytes.Equal(got.Data, art.Data) {
			t.Fatalf("data not round-tripped:\nsaved:  %s\nloaded: %s", art.Data, got.Data)
		}
		// A round-tripped artifact must also be diff-clean against itself.
		if d := DiffArtifacts([]Artifact{art}, []Artifact{got}, Tolerance{}); !d.Clean() {
			t.Fatalf("round-tripped artifact diffs against itself:\n%s", d.Render())
		}
		// ReadArtifact on the stored file must agree with Load.
		direct, err := ReadArtifact(filepath.Join(dir, id+".json"))
		if err != nil {
			t.Fatalf("ReadArtifact: %v", err)
		}
		if !bytes.Equal(direct.Data, art.Data) {
			t.Fatalf("ReadArtifact data differs from Load data")
		}
	})
}
