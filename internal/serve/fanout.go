package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
)

// fanOut evaluates the items named by spans on at most workers goroutines:
// one worker takes one span at a time and visits its indices in order, so
// a caller that groups related items into a span (batchSweep) keeps them
// on one worker. results[i] is valid once ready[i] is closed; finished
// closes when every worker has retired. Once ctx ends, the items not yet
// visited are filled by cancelled instead of evaluated, so a disconnected
// or expired client costs cheap error fills rather than evaluation slots.
// Workers decide only wall-clock order, never values: each item is an
// independent deterministic evaluation, so results equal a sequential pass.
func fanOut[T any](ctx context.Context, workers int, spans [][]int, eval func(i int) T, cancelled func(i int, err error) T) (results []T, ready []chan struct{}, finished chan struct{}) {
	n := 0
	for _, sp := range spans {
		n += len(sp)
	}
	results = make([]T, n)
	ready = make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	workers = min(workers, len(spans))
	next := make(chan []int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for wkr := 0; wkr < workers; wkr++ {
		go func() {
			defer wg.Done()
			for sp := range next {
				for _, i := range sp {
					if err := ctx.Err(); err != nil {
						results[i] = cancelled(i, err)
					} else {
						results[i] = eval(i)
					}
					close(ready[i])
				}
			}
		}()
	}
	finished = make(chan struct{})
	go func() {
		for _, sp := range spans {
			next <- sp
		}
		close(next)
		wg.Wait()
		close(finished)
	}()
	return results, ready, finished
}

// indexSpans visits n items in index order, one item per span.
func indexSpans(n int) [][]int {
	order := make([]int, n)
	spans := make([][]int, n)
	for i := range order {
		order[i] = i
		spans[i] = order[i : i+1]
	}
	return spans
}

// streamNDJSON writes a fanOut's results as NDJSON, one line per item in
// index order, each flushed as soon as it is ready. It returns only after
// finished closes, so no worker writes after the handler returns; on a
// write error (the client went away) the remaining items drain as
// cancellation fills through the request context.
//
// Mid-stream failure contract (see cmd/paceserve/README.md): once
// streaming has begun the status line is long gone, so a deadline or
// cancellation mid-grid cannot turn into a 503/504. Instead the remaining
// lines carry "cancelled: ..." errors, and the response announces a
// Retry-After trailer before the body — trailers must be declared ahead
// of the status line to be emitted at all — and sets it to "1" after the
// stream if any work was abandoned: the streaming analogue of the 503/504
// Retry-After header.
func streamNDJSON[T any](w http.ResponseWriter, r *http.Request, results []T, ready []chan struct{}, finished chan struct{}) (ok bool) {
	defer func() { <-finished }()
	w.Header().Set("Trailer", "Retry-After")
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i := range results {
		<-ready[i]
		if err := enc.Encode(&results[i]); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if r.Context().Err() != nil {
		w.Header().Set("Retry-After", "1")
	}
	return true
}

// writeJSON writes v as an indented JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
