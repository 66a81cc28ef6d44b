package main

// Server lifecycle. Every serve.Server the benchmark starts is registered
// with a harness, and harness.close shuts each down: http.Server.Shutdown
// (falling back to Close), a wait for Serve to return, then
// serve.Server.Close. execute defers harness.close, so it runs on success,
// on a failed check, after a recovered panic, and when the run context is
// cancelled by SIGINT/SIGTERM or the run deadline.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"pacesweep/internal/experiments"
	"pacesweep/internal/grid"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/pace"
	"pacesweep/internal/platform"
	"pacesweep/internal/serve"
)

// shutdownGrace bounds how long Shutdown waits for in-flight requests
// before the listener's connections are closed hard. It exceeds the 5 s
// net/http waits before it treats a connection that never sent a request
// as idle.
const shutdownGrace = 10 * time.Second

// instance is one serve.Server behind its own loopback listener.
type instance struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when hs.Serve has returned

	// ev is the server's own evaluator for platformName, captured from
	// the build hook (the server equips this very pointer); model is its
	// fitted hardware model and fit the time FitModel plus
	// EvaluatorFromModel took.
	ev    *pace.Evaluator
	model *hwmodel.Model
	fit   time.Duration
}

// close shuts the instance down and reports a Shutdown that had to be
// forced.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if err != nil {
		in.hs.Close()
		err = fmt.Errorf("shutting down %s: %w", in.url, err)
	}
	<-in.done
	in.srv.Close()
	return err
}

// harness owns every instance and the loopback client of one run.
type harness struct {
	client  *http.Client
	onStart func(url string) // called with each new instance's base URL

	mu   sync.Mutex
	live []*instance
}

func newHarness(onStart func(url string)) *harness {
	return &harness{onStart: onStart, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}}
}

// start builds a serve.Server with the given scheduler, fits its platform
// (serve.New plus model fitting), and serves it on 127.0.0.1:0. wrap, when
// non-nil, wraps the server's handler (the traced run's handler spans).
func (h *harness) start(scheduler string, wrap func(http.Handler) http.Handler) (*instance, error) {
	in := &instance{done: make(chan struct{})}
	spec, ok := platform.DefaultRegistry().Get(platformName)
	if !ok {
		return nil, fmt.Errorf("platform %q is not registered", platformName)
	}
	srv, err := serve.New(serve.Config{
		Platforms:    []string{platformName},
		Scheduler:    scheduler,
		SweepWorkers: 2,
		BuildEvaluator: func(string) (*pace.Evaluator, error) {
			start := time.Now()
			m, err := experiments.FitModel(spec, grid.Global{NX: 50, NY: 50, NZ: 50}, 1001)
			if err != nil {
				return nil, err
			}
			ev, err := experiments.EvaluatorFromModel(m)
			if err != nil {
				return nil, err
			}
			in.ev, in.model, in.fit = ev, m, time.Since(start)
			return ev, nil
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var handler http.Handler = srv
	if wrap != nil {
		handler = wrap(srv)
	}
	in.srv = srv
	in.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	in.url = "http://" + ln.Addr().String()
	go func() {
		defer close(in.done)
		if err := in.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "servebench: serve: %v\n", err)
		}
	}()
	h.mu.Lock()
	h.live = append(h.live, in)
	h.mu.Unlock()
	if h.onStart != nil {
		h.onStart(in.url)
	}
	if err := srv.Warm(platformName); err != nil {
		return nil, fmt.Errorf("fitting %s: %w", platformName, err)
	}
	return in, nil
}

// stop shuts one instance down and forgets it. The client's idle
// connections are dropped first: the transport may have dialed a spare
// connection it never used, and Shutdown would wait out its
// new-connection grace before treating it as idle.
func (h *harness) stop(in *instance) error {
	h.mu.Lock()
	for i, x := range h.live {
		if x == in {
			h.live = append(h.live[:i], h.live[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
	h.client.CloseIdleConnections()
	return in.close()
}

// close shuts down every live instance and drops the client's idle
// connections. It is safe to call more than once.
func (h *harness) close() error {
	h.mu.Lock()
	live := h.live
	h.live = nil
	h.mu.Unlock()
	h.client.CloseIdleConnections()
	var errs []error
	for _, in := range live {
		errs = append(errs, in.close())
	}
	return errors.Join(errs...)
}
