package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// streamRequests holds one four-line NDJSON grid per streaming endpoint.
var streamRequests = []struct {
	name, path, body string
}{
	{"sweep", "/v1/sweep", `{
		"platform": "alpha",
		"arrays": [{"px": 1, "py": 1}, {"px": 2, "py": 1}, {"px": 2, "py": 2}, {"px": 3, "py": 2}],
		"iterations": 4,
		"stream": true
	}`},
	{"perturb", "/v1/perturb", `{
		"platform": "alpha",
		"grid": {"nx": 100, "ny": 100, "nz": 50},
		"array": {"px": 2, "py": 2},
		"scenarios": [
			{"seed": 1, "delays": [{"rank": 0, "iteration": 0, "seconds": 3.0}]},
			{"seed": 1, "delays": [{"rank": 3, "iteration": 5, "seconds": 1.5}]},
			{"seed": 2, "delays": [{"rank": 1, "iteration": 9, "seconds": 4.0}]},
			{"seed": 3, "delays": [{"rank": 2, "iteration": 2, "seconds": 2.0}]}
		]
	}`},
	{"resilience", "/v1/resilience", `{
		"platform": "alpha",
		"grid": {"nx": 100, "ny": 100, "nz": 50},
		"array": {"px": 2, "py": 2},
		"studies": [
			{"seed": 1, "checkpoint": {"interval_iterations": 2, "checkpoint_seconds": 0.01, "restart_seconds": 0.01},
				"failure": {"mtbf_seconds": 2.0, "scenarios": 2}},
			{"seed": 2, "checkpoint": {"interval_iterations": 3, "checkpoint_seconds": 0.01, "restart_seconds": 0.01},
				"failure": {"mtbf_seconds": 2.0, "scenarios": 2}},
			{"seed": 3, "checkpoint": {"interval_iterations": 4, "checkpoint_seconds": 0.01, "restart_seconds": 0.01},
				"failure": {"mtbf_seconds": 2.0, "scenarios": 2}},
			{"seed": 4, "checkpoint": {"interval_iterations": 6, "checkpoint_seconds": 0.01, "restart_seconds": 0.01},
				"failure": {"mtbf_seconds": 2.0, "scenarios": 2}}
		]
	}`},
}

// streamLine is the part of every streamed line the contract pins.
type streamLine struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// TestStreamCancelledTrailer pins the NDJSON mid-stream failure contract
// on every streaming endpoint: a grid run under an already-cancelled
// request context streams every line in index order, each carrying a
// cancellation error, and sets the announced Retry-After trailer to "1" —
// the NDJSON analogue of the 503/504 Retry-After header. The same grid
// under a live context streams clean lines and leaves the trailer unset.
func TestStreamCancelledTrailer(t *testing.T) {
	s := newTestServer(t, nil)
	for _, c := range streamRequests {
		t.Run(c.name, func(t *testing.T) {
			for _, cancelled := range []bool{true, false} {
				ctx, cancel := context.WithCancel(context.Background())
				if cancelled {
					cancel()
				}
				req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)).WithContext(ctx)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				cancel()
				if rec.Code != http.StatusOK {
					t.Fatalf("cancelled=%v: status %d: %s", cancelled, rec.Code, rec.Body.String())
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
					t.Errorf("cancelled=%v: content type %q", cancelled, ct)
				}
				if tr := rec.Header().Get("Trailer"); tr != "Retry-After" {
					t.Errorf("cancelled=%v: Trailer header %q, want Retry-After announced", cancelled, tr)
				}
				sc := bufio.NewScanner(rec.Body)
				sc.Buffer(nil, 1<<20)
				lines := 0
				for ; sc.Scan(); lines++ {
					var ln streamLine
					if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
						t.Fatal(err)
					}
					if ln.Index != lines {
						t.Fatalf("line %d carries index %d", lines, ln.Index)
					}
					if got := strings.Contains(ln.Error, "cancelled"); got != cancelled {
						t.Fatalf("cancelled=%v: line %d error %q", cancelled, lines, ln.Error)
					}
				}
				if lines != 4 {
					t.Fatalf("cancelled=%v: streamed %d lines, want 4", cancelled, lines)
				}
				want := ""
				if cancelled {
					want = "1"
				}
				if got := rec.Result().Trailer.Get("Retry-After"); got != want {
					t.Fatalf("cancelled=%v: Retry-After trailer %q, want %q", cancelled, got, want)
				}
			}
		})
	}
}

// disconnectingWriter simulates a client that goes away mid-stream: the
// first body write succeeds, every later write cancels the request
// context and fails, like a real severed connection.
type disconnectingWriter struct {
	header http.Header
	writes int
	cancel context.CancelFunc
}

func (d *disconnectingWriter) Header() http.Header { return d.header }
func (d *disconnectingWriter) WriteHeader(int)     {}
func (d *disconnectingWriter) Write(p []byte) (int, error) {
	d.writes++
	if d.writes > 1 {
		d.cancel()
		return 0, errors.New("client disconnected")
	}
	return len(p), nil
}

// TestStreamDisconnectNoGoroutineLeaks abandons every streaming
// endpoint's NDJSON grid mid-write and checks the fan-out still retires:
// the write error must drain the workers through context cancellation,
// never strand one blocked on the work channel.
func TestStreamDisconnectNoGoroutineLeaks(t *testing.T) {
	s := newTestServer(t, nil)
	for _, c := range streamRequests {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for round := 0; round < 3; round++ {
				ctx, cancel := context.WithCancel(context.Background())
				req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)).WithContext(ctx)
				w := &disconnectingWriter{header: make(http.Header), cancel: cancel}
				s.ServeHTTP(w, req)
				cancel()
				if w.writes < 2 {
					t.Fatalf("round %d: stream never hit the disconnect (%d writes)", round, w.writes)
				}
			}
			waitGoroutines(t, before)
		})
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// within two of before. Fan-outs retire synchronously per request; the
// grace period only absorbs scheduler lag.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
