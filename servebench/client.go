package main

// The closed-loop load generator: each client sends its next request only
// after the previous reply has been read in full. Clients take the next
// index of the fixed request list, so the list is sent exactly once, in
// order of issue.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// seqHeader carries the timed request index to the traced run's handler
// wrapper, which files its handler span under that index.
const seqHeader = "X-Servebench-Seq"

// phase is the outcome of sending one request list.
type phase struct {
	start   []time.Duration // send time after the phase began, per request index
	latency []time.Duration // client-observed, per request index
	failed  []bool          // non-200, transport error, or failed check
	elapsed time.Duration   // first send to last reply
	errs    []error         // first few failure causes
}

// checkFunc validates the body of request i; it runs on the client
// goroutine that received it.
type checkFunc func(i int, body []byte) error

// newPhase allocates the per-request arrays of an n-request phase.
func newPhase(n int) *phase {
	return &phase{start: make([]time.Duration, n), latency: make([]time.Duration, n), failed: make([]bool, n)}
}

// drive sends bodies to url with the given number of closed-loop clients.
// It stops issuing requests when ctx ends; requests it never sent count as
// failed, as do requests whose reply is not 200 or fails check.
func drive(ctx context.Context, client *http.Client, url string, bodies [][]byte, clients int, traced bool, check checkFunc) *phase {
	return newPhase(len(bodies)).send(ctx, client, url, bodies, clients, traced, check)
}

// send is drive into a phase allocated for len(bodies) requests.
func (ph *phase) send(ctx context.Context, client *http.Client, url string, bodies [][]byte, clients int, traced bool, check checkFunc) *phase {
	n := len(bodies)
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	fail := func(i int, err error) {
		ph.failed[i] = true
		mu.Lock()
		if len(ph.errs) < 5 {
			ph.errs = append(ph.errs, fmt.Errorf("request %d: %w", i, err))
		}
		mu.Unlock()
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					fail(i, ctx.Err())
					continue
				}
				ph.start[i] = time.Since(start)
				lat, err := roundTrip(ctx, client, url, bodies[i], i, traced, &buf)
				ph.latency[i] = lat
				if err == nil && check != nil {
					err = safeCheck(check, i, buf.Bytes())
				}
				if err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// safeCheck runs check, turning a panic into the request's failure.
func safeCheck(check checkFunc, i int, body []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("check panicked: %v", p)
		}
	}()
	return check(i, body)
}

// roundTrip posts one body and reads the whole reply into buf.
func roundTrip(ctx context.Context, client *http.Client, url string, body []byte, i int, traced bool, buf *bytes.Buffer) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(seqHeader, strconv.Itoa(i))
	}
	buf.Reset()
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return time.Since(start), err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return lat, nil
}

// failures counts failed requests.
func (ph *phase) failures() int {
	n := 0
	for _, f := range ph.failed {
		if f {
			n++
		}
	}
	return n
}

// handlerSpans records, per timed request index, the time spent inside
// serve.Server.ServeHTTP, measured by a wrapping handler.
type handlerSpans struct {
	d []atomic.Int64 // nanoseconds; 0 = not recorded
}

func newHandlerSpans(n int) *handlerSpans { return &handlerSpans{d: make([]atomic.Int64, n)} }

// wrap returns a handler that times next.ServeHTTP for requests carrying
// seqHeader.
func (s *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		if i, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil && i >= 0 && i < len(s.d) {
			s.d[i].Store(int64(d))
		}
	})
}

func (s *handlerSpans) get(i int) time.Duration { return time.Duration(s.d[i].Load()) }
