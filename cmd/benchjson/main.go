// Command benchjson converts `go test -bench` output into the BENCH_PRn.json
// record: one entry per benchmark with ns/op — plus allocs/op and B/op when
// the input was produced with -benchmem.
//
// Two modes:
//
//	# filter mode: parse bench output from stdin
//	go test -run xxx -bench 'BenchmarkWorldRun|BenchmarkPredictTemplate' \
//	  -benchmem -benchtime 3x . | go run ./cmd/benchjson > BENCH_PR2.json
//
//	# runner mode: invoke go test itself, passing profiles through
//	go run ./cmd/benchjson -bench 'BenchmarkWorldRun|BenchmarkPredictTemplate' \
//	  -benchtime 3x -cpuprofile cpu.prof -memprofile mem.prof > BENCH_PR2.json
//
// In runner mode -cpuprofile/-memprofile are passed through to go test
// unchanged, so the emitted record and the pprof profiles come from the
// same run; the raw bench output is echoed to stderr.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one benchmark measurement. AllocsPerOp/BytesPerOp are emitted
// when the bench run included -benchmem.
type Entry struct {
	Name        string   `json:"name"`
	NsOp        float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// Record is the emitted document.
type Record struct {
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	Entries   []Entry `json:"entries"`
}

func main() {
	var (
		benchRe    = flag.String("bench", "", "runner mode: invoke `go test -bench` with this pattern instead of reading stdin")
		benchtime  = flag.String("benchtime", "3x", "runner mode: -benchtime passed to go test")
		count      = flag.Int("count", 1, "runner mode: -count passed to go test")
		pkg        = flag.String("pkg", ".", "runner mode: package to benchmark")
		cpuprofile = flag.String("cpuprofile", "", "runner mode: -cpuprofile passed through to go test")
		memprofile = flag.String("memprofile", "", "runner mode: -memprofile passed through to go test")
	)
	flag.Parse()

	input := io.Reader(os.Stdin)
	var cmd *exec.Cmd
	if *benchRe != "" {
		args := []string{"test", "-run", "xxx", "-bench", *benchRe,
			"-benchmem", "-benchtime", *benchtime, "-count", strconv.Itoa(*count)}
		if *cpuprofile != "" {
			args = append(args, "-cpuprofile", *cpuprofile)
		}
		if *memprofile != "" {
			args = append(args, "-memprofile", *memprofile)
		}
		args = append(args, *pkg)
		cmd = exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fail(err)
		}
		if err := cmd.Start(); err != nil {
			fail(err)
		}
		// Echo the raw bench lines to stderr while parsing them.
		input = io.TeeReader(out, os.Stderr)
	}

	rec, parseErr := parse(input)
	// A failed bench run must never produce a plausible record on stdout:
	// reap the child and bail before encoding anything.
	if cmd != nil {
		if err := cmd.Wait(); err != nil {
			fail(fmt.Errorf("go test: %w", err))
		}
	}
	if parseErr != nil {
		fail(parseErr)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		fail(err)
	}
}

// parse reads `go test -bench` output and builds the record.
func parse(r io.Reader) (*Record, error) {
	rec := &Record{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// "BenchmarkFoo/sub-8   3   123456 ns/op   64 B/op   2 allocs/op [...]"
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		e := Entry{NsOp: -1}
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsOp = v
			case "B/op":
				b := v
				e.BytesPerOp = &b
			case "allocs/op":
				a := v
				e.AllocsPerOp = &a
			}
		}
		if e.NsOp < 0 {
			continue
		}
		e.Name = fields[0]
		// Strip the trailing -GOMAXPROCS suffix.
		if i := strings.LastIndex(e.Name, "-"); i > 0 {
			if _, err := strconv.Atoi(e.Name[i+1:]); err == nil {
				e.Name = e.Name[:i]
			}
		}
		rec.Entries = append(rec.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rec.Entries = minByName(rec.Entries)

	return rec, nil
}

// minByName folds repeated measurements of one benchmark (go test -count
// N) into a single entry holding the minimum ns/op — the standard robust
// estimator on shared/noisy runners, where background load only ever
// inflates a measurement. Allocation counts are near-deterministic, so
// the minimum is taken independently per field. First-seen order is kept.
func minByName(entries []Entry) []Entry {
	idx := make(map[string]int, len(entries))
	out := entries[:0]
	for _, e := range entries {
		i, seen := idx[e.Name]
		if !seen {
			idx[e.Name] = len(out)
			out = append(out, e)
			continue
		}
		if e.NsOp < out[i].NsOp {
			out[i].NsOp = e.NsOp
		}
		if e.AllocsPerOp != nil && (out[i].AllocsPerOp == nil || *e.AllocsPerOp < *out[i].AllocsPerOp) {
			out[i].AllocsPerOp = e.AllocsPerOp
		}
		if e.BytesPerOp != nil && (out[i].BytesPerOp == nil || *e.BytesPerOp < *out[i].BytesPerOp) {
			out[i].BytesPerOp = e.BytesPerOp
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
