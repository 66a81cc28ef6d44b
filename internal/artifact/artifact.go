// Package artifact is the content-addressed on-disk artifact store behind
// warm paceserve starts: fitted hardware models, cost kernels and
// registered platform specs are persisted under the fingerprint keys the
// codebase already computes, so a restarted (or freshly scaled-out)
// process faults its caches in from disk instead of refitting and
// re-pricing.
//
// Layout: one directory per artifact kind, one file per key
// (`<root>/<kind>/<key>.art`). Keys are the content address — a spec
// fingerprint, a kernel shape and model — so equal keys always denote byte-equal
// artifacts and a Put can only ever overwrite with identical semantics.
// Writes go through a temp file + rename, so readers never observe a
// partial artifact; the codec checksum (codec.go) catches torn or
// corrupted files anyway.
//
// GetOrFill is the cross-replica singleflight: concurrent fills of one key
// coalesce in-process on a per-key flight, and across processes the first
// replica to finish publishes the artifact for every later one.
package artifact

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Artifact kinds used across the codebase; any [a-z] name works, these are
// the conventional directories.
const (
	KindModel  = "model"  // fitted hwmodel.Model, keyed by spec fingerprint
	KindKernel = "kernel" // cost kernel tables, keyed by shape+model
	KindSpec   = "spec"   // registered platform.Spec, keyed by fingerprint
)

// ErrNotFound marks a Get of a key the store has no artifact for.
var ErrNotFound = errors.New("artifact: not found")

const (
	fileExt = ".art"
	// badExt marks a quarantined artifact: one whose decode failed after a
	// clean read. Quarantine renames the file aside rather than deleting
	// it, so the corrupt bytes stay available for a post-mortem while every
	// later Get is a clean miss that refills through the build path.
	badExt = ".bad"
	// tmpMark is the infix os.CreateTemp stamps into in-flight write files
	// (`<key>.tmp-<random>`); Open sweeps any left behind by a crash.
	tmpMark = ".tmp-"
)

// Store is a content-addressed artifact directory. It is safe for
// concurrent use; several processes may share one root (writes are
// atomic renames, fills are idempotent by content addressing).
type Store struct {
	root string

	mu     sync.Mutex
	flight map[string]*fill // in-process singleflight per kind/key

	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	errors      atomic.Uint64
	quarantined atomic.Uint64
	tempsSwept  atomic.Uint64
	bytes       atomic.Int64 // bytes on disk (initial scan + write deltas)

	load   histogram // Get file-read latency
	decode histogram // caller-reported decode latency (ObserveDecode)
}

type fill struct {
	done      chan struct{}
	data      []byte
	fromStore bool
	err       error
}

// Open creates (if needed) and opens a store rooted at dir, scanning it
// once so the bytes-on-disk gauge starts accurate. The scan also sweeps
// temp files orphaned by a crashed writer (`<key>.tmp-<random>`): a
// process that died between CreateTemp and Rename leaves one behind, and
// nothing else ever reclaims it. The rename into place is atomic, so any
// temp file observed at Open belongs to a dead writer or to a concurrent
// live one; sweeping a live writer's file only fails its Put, which the
// load-through paths already tolerate by building live.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	s := &Store{root: dir, flight: make(map[string]*fill)}
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.Contains(d.Name(), tmpMark) {
			if os.Remove(path) == nil {
				s.tempsSwept.Add(1)
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), fileExt) {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("artifact: scanning %s: %w", dir, err)
	}
	s.bytes.Store(total)
	return s, nil
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

// path validates the kind/key pair and returns the artifact's file path.
// Keys and kinds are restricted to a filename-safe alphabet so a
// fingerprint can never traverse outside the store.
func (s *Store) path(kind, key string) (string, error) {
	if !safeName(kind) || !safeName(key) {
		return "", fmt.Errorf("artifact: invalid kind/key %q/%q", kind, key)
	}
	return filepath.Join(s.root, kind, key+fileExt), nil
}

func safeName(n string) bool {
	if n == "" || len(n) > 128 {
		return false
	}
	for i := 0; i < len(n); i++ {
		c := n[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return !strings.Contains(n, "..")
}

// Get returns the stored artifact bytes for kind/key, or ErrNotFound.
// Reads are counted as hits/misses and timed into the load histogram.
func (s *Store) Get(kind, key string) ([]byte, error) {
	path, err := s.path(kind, key)
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	start := time.Now()
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		s.hits.Add(1)
		s.load.observe(time.Since(start))
		return data, nil
	case errors.Is(err, fs.ErrNotExist):
		s.misses.Add(1)
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, kind, key)
	default:
		s.errors.Add(1)
		return nil, fmt.Errorf("artifact: %w", err)
	}
}

// Put atomically writes an artifact: a temp file in the kind directory,
// fsync-free rename into place. Content addressing makes overwrites
// idempotent, so concurrent writers of one key are harmless.
func (s *Store) Put(kind, key string, data []byte) error {
	path, err := s.path(kind, key)
	if err != nil {
		s.errors.Add(1)
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.errors.Add(1)
		return fmt.Errorf("artifact: %w", err)
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		s.errors.Add(1)
		return fmt.Errorf("artifact: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.errors.Add(1)
		return fmt.Errorf("artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.errors.Add(1)
		return fmt.Errorf("artifact: %w", err)
	}
	var prev int64
	if info, err := os.Stat(path); err == nil {
		prev = info.Size()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.errors.Add(1)
		return fmt.Errorf("artifact: %w", err)
	}
	s.writes.Add(1)
	s.bytes.Add(int64(len(data)) - prev)
	return nil
}

// Quarantine moves a corrupt artifact aside, renaming `<key>.art` to
// `<key>.bad` so every later Get of the key is a clean miss (and so a
// load-through rebuild re-publishes a good artifact) instead of the same
// decode failure repeating on every load. Callers invoke it exactly when
// a cleanly-read artifact fails to decode — the one state Get's own error
// handling can't see. The corrupt bytes are kept under the .bad name for
// inspection; a later quarantine of the same key overwrites them.
// Quarantining a key with no artifact on disk is a no-op (another replica
// sharing the root may have quarantined it first).
func (s *Store) Quarantine(kind, key string) error {
	path, err := s.path(kind, key)
	if err != nil {
		s.errors.Add(1)
		return err
	}
	var size int64
	if info, err := os.Stat(path); err == nil {
		size = info.Size()
	} else if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err := os.Rename(path, strings.TrimSuffix(path, fileExt)+badExt); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		s.errors.Add(1)
		return fmt.Errorf("artifact: quarantining %s/%s: %w", kind, key, err)
	}
	s.quarantined.Add(1)
	s.bytes.Add(-size)
	return nil
}

// Keys lists the stored keys of one kind, in directory order. A kind with
// no artifacts yet lists empty.
func (s *Store) Keys(kind string) ([]string, error) {
	if !safeName(kind) {
		return nil, fmt.Errorf("artifact: invalid kind %q", kind)
	}
	entries, err := os.ReadDir(filepath.Join(s.root, kind))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	var keys []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, fileExt) {
			keys = append(keys, strings.TrimSuffix(name, fileExt))
		}
	}
	return keys, nil
}

// GetOrFill returns the artifact for kind/key, running build to produce
// and persist it on a miss. Concurrent calls for one key coalesce onto a
// single build (the fill singleflight); every waiter receives the same
// bytes. fromStore reports whether the bytes were loaded rather than
// built — the warm-start signal. Build errors are returned to every
// waiter and not cached; a store write failure after a successful build
// is logged into the error counter but does not fail the call (the built
// artifact is still good, the next process just fills again).
func (s *Store) GetOrFill(kind, key string, build func() ([]byte, error)) (data []byte, fromStore bool, err error) {
	if data, err := s.Get(kind, key); err == nil {
		return data, true, nil
	} else if !errors.Is(err, ErrNotFound) {
		// A store I/O problem must not take serving down: fall through to
		// the build path (the error was already counted).
		_ = err
	}
	fkey := kind + "/" + key
	s.mu.Lock()
	if f, ok := s.flight[fkey]; ok {
		s.mu.Unlock()
		<-f.done
		return f.data, f.fromStore, f.err
	}
	f := &fill{done: make(chan struct{})}
	s.flight[fkey] = f
	s.mu.Unlock()

	defer func() {
		f.data, f.fromStore, f.err = data, fromStore, err
		s.mu.Lock()
		delete(s.flight, fkey)
		s.mu.Unlock()
		close(f.done)
	}()

	// Another process may have published the artifact while this one was
	// queueing for the flight; re-check before doing the expensive build.
	if got, err := s.Get(kind, key); err == nil {
		return got, true, nil
	}
	built, berr := build()
	if berr != nil {
		return nil, false, berr
	}
	_ = s.Put(kind, key, built) // failure counted in errors; built result still served
	return built, false, nil
}

// ObserveDecode records how long a caller spent decoding a loaded
// artifact; together with the load histogram it is the stats block's
// load/decode latency story.
func (s *Store) ObserveDecode(d time.Duration) { s.decode.observe(d) }

// --- stats ---

// latencyBounds are the load/decode histogram bucket upper bounds in
// seconds (+Inf is implicit). Artifact reads and decodes are
// sub-millisecond to tens of milliseconds, so the bounds sit well below
// the serving layer's request-latency bounds.
var latencyBounds = [...]float64{0.0001, 0.0005, 0.002, 0.01, 0.05, 0.25, 1}

type histogram struct {
	count   atomic.Uint64
	nanos   atomic.Uint64
	buckets [len(latencyBounds) + 1]atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	h.count.Add(1)
	h.nanos.Add(uint64(d.Nanoseconds()))
	sec := d.Seconds()
	for i, bound := range latencyBounds {
		if sec <= bound {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(latencyBounds)].Add(1)
}

// HistogramSnapshot is one latency histogram in a Stats snapshot:
// cumulative Prometheus-style bucket counts plus count and sum.
type HistogramSnapshot struct {
	Count        uint64        `json:"count"`
	TotalSeconds float64       `json:"total_seconds"`
	Buckets      []BucketCount `json:"buckets"`
}

// BucketCount is one cumulative histogram bucket; the +Inf bucket is
// encoded as Inf=true.
type BucketCount struct {
	LeSeconds float64 `json:"le_seconds"`
	Inf       bool    `json:"inf,omitempty"`
	Count     uint64  `json:"count"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Count:        h.count.Load(),
		TotalSeconds: float64(h.nanos.Load()) / 1e9,
	}
	cum := uint64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		b := BucketCount{Count: cum}
		if i < len(latencyBounds) {
			b.LeSeconds = latencyBounds[i]
		} else {
			b.Inf = true
		}
		out.Buckets = append(out.Buckets, b)
	}
	return out
}

// Stats is a point-in-time snapshot of the store's counters — the
// `artifacts` block of /v1/stats.
type Stats struct {
	Hits        uint64            `json:"hits"`
	Misses      uint64            `json:"misses"`
	Writes      uint64            `json:"writes"`
	Errors      uint64            `json:"errors,omitempty"`
	Quarantined uint64            `json:"quarantined,omitempty"`
	TempsSwept  uint64            `json:"temps_swept,omitempty"`
	BytesOnDisk int64             `json:"bytes_on_disk"`
	Load        HistogramSnapshot `json:"load"`
	Decode      HistogramSnapshot `json:"decode"`
}

// Stats snapshots the counter set.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		Errors:      s.errors.Load(),
		Quarantined: s.quarantined.Load(),
		TempsSwept:  s.tempsSwept.Load(),
		BytesOnDisk: s.bytes.Load(),
		Load:        s.load.snapshot(),
		Decode:      s.decode.snapshot(),
	}
}
