// Package httpapi holds the HTTP plumbing shared by this repository's
// JSON APIs — the remote-execution coordinator (internal/remote) and the
// experiment service (internal/expsvc): the versioned error envelope,
// optional bearer-token authentication, the servers' JSON responses and
// long-poll waits, and a JSON request helper for clients.
//
// Every API speaks version-stamped JSON envelopes; an error response is
// always {"v": N, "error": "..."}. Authentication is a single shared
// bearer token (`-auth-token` on pifcoord and pifexpd): when configured,
// every request must carry "Authorization: Bearer <token>" and a
// missing or mismatched token is rejected with 401 and the versioned
// error envelope, before the request reaches any handler.
package httpapi

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// ErrorBody is the versioned error envelope every API returns on
// failure.
type ErrorBody struct {
	V   int    `json:"v"`
	Err string `json:"error"`
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the versioned error envelope with the given status.
func WriteError(w http.ResponseWriter, version, status int, msg string) {
	WriteJSON(w, status, ErrorBody{V: version, Err: msg})
}

// MaxWait caps long-poll waits so a stuck client cannot pin a handler
// forever.
const MaxWait = 30 * time.Second

// ClampWait bounds a client-requested long-poll wait of ms milliseconds
// to [0, MaxWait].
func ClampWait(ms int64) time.Duration {
	return time.Duration(min(max(ms, 0), MaxWait.Milliseconds())) * time.Millisecond
}

// WaitChange blocks until changed is closed (true), or until the deadline
// passes or the request dies (false). Servers pass the channel of their
// state generation, closed on every change.
func WaitChange(r *http.Request, changed <-chan struct{}, deadline time.Time) bool {
	wait := time.Until(deadline)
	if wait <= 0 {
		return false
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-changed:
		return true
	case <-timer.C:
		return false
	case <-r.Context().Done():
		return false
	}
}

// bearerPrefix is the Authorization scheme the APIs accept.
const bearerPrefix = "Bearer "

// RequireAuth wraps next in bearer-token authentication: requests must
// carry "Authorization: Bearer <token>" or they are rejected with 401
// and the versioned error envelope. An empty token disables the check
// (open API). Paths listed in exempt (exact match) bypass the check —
// health probes stay reachable by load balancers that hold no secret.
func RequireAuth(token string, version int, next http.Handler, exempt ...string) http.Handler {
	if token == "" {
		return next
	}
	open := make(map[string]bool, len(exempt))
	for _, p := range exempt {
		open[p] = true
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if open[r.URL.Path] {
			next.ServeHTTP(w, r)
			return
		}
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), bearerPrefix)
		if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
			WriteError(w, version, http.StatusUnauthorized, "unauthorized: missing or invalid bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// authTransport stamps the bearer token onto every outgoing request.
type authTransport struct {
	token string
	next  http.RoundTripper
}

func (t authTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	// RoundTrippers must not mutate the caller's request.
	c := r.Clone(r.Context())
	c.Header.Set("Authorization", bearerPrefix+t.token)
	return t.next.RoundTrip(c)
}

// Client returns an HTTP client for one of the repository's APIs: with a
// token, every request carries the bearer Authorization header; with an
// empty token it is a plain client.
func Client(token string) *http.Client {
	if token == "" {
		return &http.Client{}
	}
	return &http.Client{Transport: authTransport{token: token, next: http.DefaultTransport}}
}

// StatusError is a non-2xx response from an API, carrying the HTTP
// status and the envelope's error message so callers can react to
// specific codes (404: the ID is unknown — possibly a restarted server
// that lost in-memory state; 401: the caller's token is missing or
// wrong).
type StatusError struct {
	Status      int
	Method, URL string
	Msg         string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("httpapi: %s %s: status %d: %s", e.Method, e.URL, e.Status, e.Msg)
}

// IsStatus reports whether err is a StatusError with the given HTTP
// status.
func IsStatus(err error, status int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == status
}

// Do sends one JSON request (req nil = empty body) and decodes the JSON
// response into resp (nil = discard). Non-2xx responses decode the
// versioned error envelope into a *StatusError.
func Do(ctx context.Context, hc *http.Client, method, url string, req, resp any) error {
	var body io.Reader
	if req != nil {
		buf, err := json.Marshal(req)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if req != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode < 200 || hresp.StatusCode > 299 {
		var e ErrorBody
		msg := ""
		if json.NewDecoder(io.LimitReader(hresp.Body, 1<<16)).Decode(&e) == nil {
			msg = e.Err
		}
		return &StatusError{Status: hresp.StatusCode, Method: method, URL: url, Msg: msg}
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(hresp.Body).Decode(resp)
}
