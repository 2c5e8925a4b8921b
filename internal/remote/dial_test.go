package remote

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDialSpec pins the -backend grammar every CLI and the experiment
// service share: local specs resolve to a nil interface (the caller runs
// in process), remote@ADDR dials a coordinator, anything else is refused
// with the accepted forms.
func TestDialSpec(t *testing.T) {
	core := NewCore(CoreOptions{})
	defer core.Close()
	srv := httptest.NewServer(NewServer(core))
	defer srv.Close()

	for _, tc := range []struct {
		name, spec string
		remote     bool   // a live *Backend is expected
		errSub     string // non-empty: the error must mention it
	}{
		{name: "empty", spec: ""},
		{name: "local", spec: "local"},
		{name: "remote-no-addr", spec: "remote@", errSub: "needs a coordinator address"},
		{name: "bogus", spec: "bogus", errSub: "unknown backend"},
		{name: "remote-loopback", spec: "remote@" + srv.URL, remote: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := DialSpec(tc.spec, "")
			if tc.errSub != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errSub) {
					t.Fatalf("DialSpec(%q) error = %v, want one mentioning %q", tc.spec, err, tc.errSub)
				}
				if b != nil {
					t.Errorf("DialSpec(%q) returned backend %#v alongside its error", tc.spec, b)
				}
				return
			}
			if err != nil {
				t.Fatalf("DialSpec(%q): %v", tc.spec, err)
			}
			if !tc.remote {
				// A typed nil *Backend would compare non-nil here.
				if b != nil {
					t.Fatalf("DialSpec(%q) = %#v, want a nil interface", tc.spec, b)
				}
				return
			}
			if _, ok := b.(*Backend); !ok {
				t.Fatalf("DialSpec(%q) = %T, want *remote.Backend", tc.spec, b)
			}
			if err := b.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	}
}
