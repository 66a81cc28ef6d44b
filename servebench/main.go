// Command servebench measures paceserve end to end and layer by layer.
//
// It starts the real serve.Server in-process behind a 127.0.0.1:0
// listener, drives it through net/http as a closed loop, checks every
// reply, and prints each metric by name with its unit; the last line of
// standard output is the result as one JSON object. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it repeats the timed phase
// under handler spans and direct layer calls and prints the per-layer
// metrics. See README.md in this directory.
//
//	bash servebench/run.sh --workload predict_hot --seed 1 --seconds 20 --trace 0
//
// The command exits 0 only when every request succeeded, every check
// passed and every layer guard held.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"pacesweep/internal/lru"
	"pacesweep/internal/mp"
	"pacesweep/internal/pace"
	"pacesweep/internal/serve"
)

// runDeadline bounds a whole run; requests still in flight at the
// deadline fail instead of waiting. With shutdownGrace it keeps a run
// under 180 s.
const runDeadline = 160 * time.Second

// defaultSetups is how many times a run sets up; setup_s is the median.
const defaultSetups = 3

// options are one run's arguments.
type options struct {
	workload string
	seed     int64
	trace    bool
	requests int // timed list length
	setups   int // set-up repetitions; setup_s is their median

	// beforeTimed, when non-nil, runs just before the untraced timed
	// phase; tests use it to push a workload off its intended layer.
	beforeTimed func()
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout, os.Stderr, nil))
}

// parseArgs reads the command line: --workload, --seed, --seconds and
// --trace.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{setups: defaultSetups}
	var trace, seconds int
	fs.StringVar(&o.workload, "workload", PredictHot, fmt.Sprintf("workload: one of %v", Workloads))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated request list")
	fs.IntVar(&seconds, "seconds", 20, "time budget that sizes the fixed request list")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 || seconds < 1 {
		err := errors.New("want --trace 0|1 and --seconds >= 1")
		fmt.Fprintln(stderr, "servebench:", err)
		return o, err
	}
	o.trace = trace == 1
	o.requests = requestCount(o.workload, seconds)
	return o, nil
}

// run performs one run under SIGINT/SIGTERM handling and the run deadline,
// prints its report, and returns the process exit code. onStart, when
// non-nil, is called with the base URL of every server the run starts.
func run(o options, stdout, stderr io.Writer, onStart func(url string)) int {
	plan, err := Generate(o.workload, o.seed, o.requests)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	rep, err := execute(ctx, o, plan, onStart)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer"
	}
	header := fmt.Sprintf("servebench %s seed=%d requests=%d %s", o.workload, o.seed, o.requests, mode)
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "servebench:", p)
	}
	if err := rep.write(stdout, header); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	if !rep.res.Correct {
		return 1
	}
	return 0
}

// bench is one run in progress.
type bench struct {
	ctx  context.Context
	o    options
	plan *Plan
	h    *harness

	// heapBase is the live heap after a forced GC once the plan and the
	// untraced phase's arrays exist and before any server does, so
	// heap_live_mb counts the program's heap and not the benchmark's.
	heapBase uint64
}

// execute performs one run of plan. Every server it starts is shut down
// before it returns, whether it returns normally, with an error, or by a
// panic (which becomes the error).
func execute(ctx context.Context, o options, plan *Plan, onStart func(url string)) (rep *report, err error) {
	b := &bench{ctx: ctx, o: o, plan: plan, h: newHarness(onStart)}
	defer func() {
		if cerr := b.h.close(); cerr != nil && err == nil {
			err = fmt.Errorf("shutting down: %w", cerr)
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			rep, err = nil, fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	rep, err = b.run()
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("run cancelled: %w", context.Cause(ctx))
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// setupRun is the outcome of one set-up.
type setupRun struct {
	inst    *instance
	total   time.Duration // serve.New + fitting + warm-up
	compile time.Duration // TraceFor over the plan's shapes, after a flush
	traces  []*mp.Trace   // index-aligned with plan.Shapes
	warm    [][]byte      // predict_hot: warm-up reply per key
}

// setup flushes the process-wide trace cache and builds a ready server:
// serve.New, model fitting, the shapes' trace compiles, and (predict_hot)
// the warm-up requests that fill the response cache.
func (b *bench) setup(wrap *handlerSpans) (*setupRun, error) {
	pace.FlushTraceCache()
	runtime.GC()
	start := time.Now()
	var w func(h http.Handler) http.Handler
	if wrap != nil {
		w = wrap.wrap
	}
	in, err := b.h.start("", w)
	if err != nil {
		return nil, err
	}
	s := &setupRun{inst: in}
	cstart := time.Now()
	for _, cfg := range b.plan.Shapes {
		t, err := in.ev.TraceFor(cfg)
		if err != nil {
			return nil, fmt.Errorf("compiling shape %+v: %w", cfg.Decomp, err)
		}
		s.traces = append(s.traces, t)
	}
	s.compile = time.Since(cstart)
	if len(b.plan.Warm) > 0 {
		s.warm = make([][]byte, len(b.plan.Warm))
		ph := drive(b.ctx, b.h.client, in.url+b.plan.Path, b.plan.Warm, b.plan.Clients, false,
			func(i int, body []byte) error {
				s.warm[i] = append([]byte(nil), body...)
				return checkPredict(&b.plan.WarmRequests[i], body)
			})
		if f := ph.failures(); f > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", f, len(b.plan.Warm), errors.Join(ph.errs...))
		}
	}
	s.total = time.Since(start)
	return s, nil
}

// counters is a snapshot of everything the program already exposes.
type counters struct {
	stats   serve.StatsResponse
	traces  lru.Stats
	replays uint64
	mem     runtime.MemStats
}

// snapshot reads the server's /v1/stats, the pace package's process-wide
// counters and the runtime's memory statistics.
func (b *bench) snapshot(in *instance) (*counters, error) {
	c := &counters{}
	resp, err := b.h.client.Get(in.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&c.stats); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	c.traces = pace.TraceCacheStats()
	c.replays = pace.TraceReplays()
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

// timedRun is one pass of the timed request list with the counters read
// around it.
type timedRun struct {
	ph            *phase
	before, after *counters
	heapLive      float64 // bytes live after a forced GC at the end, less bench.heapBase
}

// timed sends the plan's timed list to in, filling ph. spans, when
// non-nil, marks the requests so the instance's handler wrapper records
// their handler time.
func (b *bench) timed(in *instance, ph *phase, chk *checker, spans *handlerSpans) (*timedRun, error) {
	runtime.GC()
	before, err := b.snapshot(in)
	if err != nil {
		return nil, err
	}
	ph.send(b.ctx, b.h.client, in.url+b.plan.Path, b.plan.Timed, b.plan.Clients, spans != nil, chk.check)
	after, err := b.snapshot(in)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &timedRun{ph: ph, before: before, after: after, heapLive: float64(m.HeapAlloc) - float64(b.heapBase)}, nil
}

// newChecker builds the checker of a timed pass, keeping the bodies the
// reference sample and the layer pass need.
func (b *bench) newChecker(warm [][]byte) *checker {
	return newChecker(b.plan, warm, append(append([]int(nil), b.plan.Sample...), layerIndices(b.plan)...))
}

// run sets up defaultSetups times, times the request list on the last
// server, checks the replies and the layer guards, and reports. With
// tracing it then repeats the timed list on a fresh server under handler
// spans and calls each layer directly.
func (b *bench) run() (*report, error) {
	untraced := newPhase(len(b.plan.Timed))
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.heapBase = m.HeapAlloc

	var (
		last     *setupRun
		setups   []float64
		compiles []float64
		fits     []float64
	)
	for r := 0; r < b.o.setups; r++ {
		if last != nil {
			if err := b.h.stop(last.inst); err != nil {
				return nil, err
			}
		}
		s, err := b.setup(nil)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", r+1, err)
		}
		if last != nil {
			for k := range s.warm {
				if !bytes.Equal(s.warm[k], last.warm[k]) {
					return nil, fmt.Errorf("set-up %d: warm-up reply %d differs from the previous set-up's", r+1, k)
				}
			}
		}
		last = s
		setups = append(setups, s.total.Seconds())
		compiles = append(compiles, s.compile.Seconds())
		fits = append(fits, s.inst.fit.Seconds())
	}

	chk := b.newChecker(last.warm)
	if b.o.beforeTimed != nil {
		b.o.beforeTimed()
	}
	a, err := b.timed(last.inst, untraced, chk, nil)
	if err != nil {
		return nil, err
	}
	if b.ctx.Err() != nil {
		return nil, fmt.Errorf("timed phase: %w", context.Cause(b.ctx))
	}
	if err := b.h.stop(last.inst); err != nil {
		return nil, err
	}
	if err := b.compareReference(a.ph, chk); err != nil {
		return nil, err
	}

	rep := newReport()
	attempted, failed := len(b.plan.Timed), a.ph.failures()
	errs := a.ph.errs
	guardErr := checkGuards(b.plan, a.before, a.after)
	if !b.o.trace {
		b.endToEnd(rep, a, median(setups))
	} else {
		spans := newHandlerSpans(len(b.plan.Timed))
		s, err := b.setup(spans)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		tchk := b.newChecker(s.warm)
		t, err := b.timed(s.inst, newPhase(len(b.plan.Timed)), tchk, spans)
		if err != nil {
			return nil, err
		}
		if err := b.h.stop(s.inst); err != nil {
			return nil, err
		}
		attempted += len(b.plan.Timed)
		failed += t.ph.failures()
		errs = append(errs, t.ph.errs...)
		if err := b.perLayer(rep, layerInput{
			untraced: a, traced: t, spans: spans, chk: tchk, setup: s,
			fit: median(fits), compile: median(compiles),
		}); err != nil {
			return nil, err
		}
	}
	for _, err := range errs {
		rep.problems = append(rep.problems, fmt.Sprint("failed: ", err))
	}
	if guardErr != nil {
		rep.problems = append(rep.problems, fmt.Sprint("guard: ", guardErr))
	}
	rep.res.Attempted, rep.res.Failed = attempted, failed
	rep.res.Correct = failed == 0 && guardErr == nil
	return rep, nil
}

// endToEnd adds the metrics a user of the service sees.
func (b *bench) endToEnd(rep *report, a *timedRun, setup float64) {
	ph := a.ph
	n := len(ph.latency)
	ok := n - ph.failures()
	tput, k := segmentedThroughput(ph, b.plan.Period)
	rep.add("throughput_rps", tput, "1/s",
		fmt.Sprintf("median over %d segments; %d replies in %.3fs, %d closed-loop client(s)",
			k, ok, ph.elapsed.Seconds(), b.plan.Clients))
	for _, m := range []struct {
		name string
		p    float64
	}{{"latency_p50_ms", 50}, {"latency_p90_ms", 90}} {
		v, k := segmentedPercentile(ph, m.p, b.plan.Period)
		rep.add(m.name, v, "ms", fmt.Sprintf("p%g of n=%d: median over %d segments of %d", m.p, n, k, n/k))
	}
	// p99 needs ten samples beyond it, which only predict_hot has. It is
	// printed but left out of the result: it follows the host's CPU steal
	// (0.26 ms at 2% steal, 1.15 ms at 18%, with p50 within 10%), far
	// beyond any bound a comparison of two commits could use.
	if n >= 1000 {
		v, k := segmentedPercentile(ph, 99, b.plan.Period)
		rep.info("latency_p99_ms", v, "ms", fmt.Sprintf("p99 of n=%d: median over %d segments; not in the result", n, k))
	}
	rep.add("heap_live_mb", a.heapLive/(1<<20), "MB",
		"live heap after a forced GC at the end of the timed phase, less the benchmark's own (taken before set-up)")
	rep.add("setup_s", setup, "s", fmt.Sprintf("median of %d set-ups: serve.New, fitting, trace compiles, warm-up", b.o.setups))
	rep.add("success_ratio", float64(ok)/float64(n), "ratio",
		fmt.Sprintf("fail_ratio=%g: %d of %d requests failed (non-200 or failed check)", ratio(float64(n-ok), float64(n)), n-ok, n))
}
