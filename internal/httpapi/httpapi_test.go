package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// okHandler answers every request with a trivial versioned body.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"v":1,"ok":true}`))
	})
}

func TestRequireAuthRejectsWithVersionedEnvelope(t *testing.T) {
	srv := httptest.NewServer(RequireAuth("s3cret", 7, okHandler(), "/v1/healthz"))
	defer srv.Close()

	cases := []struct {
		name   string
		path   string
		token  string
		status int
	}{
		{"no token", "/v1/runs", "", http.StatusUnauthorized},
		{"wrong token", "/v1/runs", "wrong", http.StatusUnauthorized},
		{"right token", "/v1/runs", "s3cret", http.StatusOK},
		{"exempt path needs no token", "/v1/healthz", "", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodGet, srv.URL+tc.path, nil)
			if tc.token != "" {
				req.Header.Set("Authorization", "Bearer "+tc.token)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.status == http.StatusUnauthorized {
				var e ErrorBody
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
					t.Fatalf("401 body is not the JSON envelope: %v", err)
				}
				if e.V != 7 || e.Err == "" {
					t.Fatalf("401 envelope = %+v, want v=7 and a message", e)
				}
			}
		})
	}
}

func TestRequireAuthEmptyTokenIsOpen(t *testing.T) {
	h := RequireAuth("", 1, okHandler())
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open API rejected a tokenless request: %d", resp.StatusCode)
	}
}

func TestClientSendsBearerToken(t *testing.T) {
	var got string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get("Authorization")
		_, _ = w.Write([]byte(`{}`))
	})
	srv := httptest.NewServer(RequireAuth("tok", 1, inner))
	defer srv.Close()

	if err := Do(context.Background(), Client("tok"), http.MethodGet, srv.URL+"/x", nil, nil); err != nil {
		t.Fatalf("authed request failed: %v", err)
	}
	if got != "Bearer tok" {
		t.Fatalf("Authorization header = %q", got)
	}
}

func TestDoDecodesEnvelopeIntoStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, 3, http.StatusNotFound, "no such run")
	}))
	defer srv.Close()

	err := Do(context.Background(), Client(""), http.MethodGet, srv.URL+"/v1/runs/x", nil, nil)
	if !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("err = %v, want a 404 StatusError", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Msg != "no such run" {
		t.Fatalf("envelope message not preserved: %v", err)
	}
}

func TestClampWait(t *testing.T) {
	cases := []struct {
		ms   int64
		want time.Duration
	}{
		{-5, 0},
		{0, 0},
		{250, 250 * time.Millisecond},
		{MaxWait.Milliseconds() + 1, MaxWait},
		{math.MaxInt64, MaxWait},
	}
	for _, tc := range cases {
		if got := ClampWait(tc.ms); got != tc.want {
			t.Errorf("ClampWait(%d) = %s, want %s", tc.ms, got, tc.want)
		}
	}
}

func TestWaitChange(t *testing.T) {
	changed := make(chan struct{})
	close(changed)
	never := make(chan struct{})
	live := httptest.NewRequest(http.MethodGet, "/v1/runs/x", nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := live.WithContext(ctx)

	cases := []struct {
		name    string
		r       *http.Request
		changed <-chan struct{}
		wait    time.Duration
		want    bool
	}{
		{"change", live, changed, time.Minute, true},
		{"deadline", live, never, 20 * time.Millisecond, false},
		{"deadline already passed", live, changed, -time.Second, false},
		{"cancelled request", dead, never, time.Minute, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := WaitChange(tc.r, tc.changed, time.Now().Add(tc.wait)); got != tc.want {
				t.Errorf("WaitChange = %v, want %v", got, tc.want)
			}
		})
	}
}
