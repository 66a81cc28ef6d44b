package main

// Lifecycle tests: on every exit path (success, a failed check, a panic,
// SIGINT, the run deadline) each listener the run opened is closed and the
// process is back to its baseline goroutine count.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pacesweep/internal/pace"
)

// startLog records the base URL of every server a run starts.
type startLog struct {
	mu   sync.Mutex
	urls []string
}

func (l *startLog) add(url string) {
	l.mu.Lock()
	l.urls = append(l.urls, url)
	l.mu.Unlock()
}

// assertClosed fails unless at least one server was started, none of their
// listeners accept connections any more, and the goroutine count returns
// to baseline.
func (l *startLog) assertClosed(t *testing.T, baseline int) {
	t.Helper()
	l.mu.Lock()
	urls := append([]string(nil), l.urls...)
	l.mu.Unlock()
	if len(urls) == 0 {
		t.Fatal("no server was started")
	}
	for _, u := range urls {
		if c, err := net.Dial("tcp", strings.TrimPrefix(u, "http://")); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", u)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// baselineGoroutines counts goroutines once the os/signal package has
// started its process-lifetime receive loop, which the first
// signal.Notify call starts and nothing ever stops.
func baselineGoroutines() int {
	_, stop := signal.NotifyContext(context.Background(), syscall.SIGUSR1)
	stop()
	return runtime.NumGoroutine()
}

// tinyRequests keeps each workload's timed list small.
var tinyRequests = map[string]int{PredictHot: 300, PredictReplay: 3, SweepPerturb: 3}

func TestRunEachWorkloadClosesEverything(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				baseline := baselineGoroutines()
				var log startLog
				var stdout, stderr bytes.Buffer
				o := options{workload: w, seed: 5, requests: tinyRequests[w], setups: 1, trace: trace}
				code := run(o, &stdout, &stderr, log.add)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, &stdout)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) == 0 {
					t.Fatalf("result %+v", res)
				}
				log.assertClosed(t, baseline)
			})
		}
	}
}

func TestFailedCheckClosesEverything(t *testing.T) {
	baseline := baselineGoroutines()
	plan := generate(t, PredictHot, 5, 200)
	// Point every timed request's check at another warm key.
	for i, k := range plan.Keys {
		plan.Keys[i] = (k + 1) % len(plan.Warm)
	}
	var log startLog
	o := options{workload: PredictHot, requests: 200, setups: 1}
	rep, err := execute(context.Background(), o, plan, log.add)
	if err != nil {
		t.Fatal(err)
	}
	if rep.res.Correct || rep.res.Failed != 200 {
		t.Fatalf("a mismatching body was not counted as failed: %+v", rep.res)
	}
	if got := rep.res.Metrics["success_ratio"].Value; got != 0 {
		t.Fatalf("success_ratio = %v, want 0", got)
	}
	log.assertClosed(t, baseline)
}

func TestBrokenGuardFailsTheRun(t *testing.T) {
	baseline := baselineGoroutines()
	var log startLog
	var stdout, stderr bytes.Buffer
	// Dropping the compiled traces makes the timed phase compile them, so
	// it no longer measures replay alone.
	o := options{workload: PredictReplay, seed: 5, requests: tinyRequests[PredictReplay], setups: 1,
		beforeTimed: pace.FlushTraceCache}
	code := run(o, &stdout, &stderr, log.add)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, &stdout)
	}
	if code != 1 || res.Correct || res.Failed != 0 {
		t.Fatalf("exit %d, result %+v; want exit 1, correct=false and no failed request", code, res)
	}
	if !strings.Contains(stderr.String(), "trace_cache_hit_ratio") {
		t.Fatalf("stderr does not name the broken guard:\n%s", &stderr)
	}
	log.assertClosed(t, baseline)
}

func TestPanicClosesEverything(t *testing.T) {
	baseline := baselineGoroutines()
	var log startLog
	plan := generate(t, SweepPerturb, 5, 2)
	o := options{workload: SweepPerturb, requests: 2, setups: 1}
	_, err := execute(context.Background(), o, plan, func(url string) {
		log.add(url)
		panic("injected")
	})
	if err == nil || !strings.Contains(err.Error(), "panic: injected") {
		t.Fatalf("err = %v, want the injected panic", err)
	}
	log.assertClosed(t, baseline)
}

func TestSignalClosesEverything(t *testing.T) {
	baseline := baselineGoroutines()
	var log startLog
	var once sync.Once
	var stdout, stderr bytes.Buffer
	o := options{workload: PredictHot, seed: 1, requests: 2000000, setups: 1}
	code := run(o, &stdout, &stderr,
		func(url string) {
			log.add(url)
			once.Do(func() { syscall.Kill(syscall.Getpid(), syscall.SIGINT) })
		})
	if code == 0 || strings.Contains(stdout.String(), `"correct"`) {
		t.Fatalf("exit %d after SIGINT, stdout:\n%s", code, &stdout)
	}
	log.assertClosed(t, baseline)
}

func TestDeadlineFailsInFlightRequests(t *testing.T) {
	baseline := baselineGoroutines()
	var log startLog
	plan := generate(t, SweepPerturb, 5, 400)
	o := options{workload: SweepPerturb, requests: 400, setups: 1}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	// Expire the run once the timed phase has requests in flight.
	expired := make(chan time.Time, 1)
	watch := func(url string) {
		log.add(url)
		go func() {
			for {
				var st struct {
					Endpoints map[string]struct{ Requests uint64 } `json:"endpoints"`
				}
				resp, err := http.Get(url + "/v1/stats")
				if err != nil {
					return // the server is gone
				}
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err == nil && st.Endpoints["sweep"].Requests >= 3 {
					expired <- time.Now()
					cancel(context.DeadlineExceeded)
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}
	_, err := execute(ctx, o, plan, watch)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the expired deadline", err)
	}
	at := <-expired
	if d := time.Since(at); d > shutdownGrace+5*time.Second {
		t.Fatalf("run returned %v after its deadline", d)
	}
	log.assertClosed(t, baseline)
}
