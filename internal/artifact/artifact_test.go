package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("fitted model bytes")
	if err := s.Put(KindModel, "00ab", payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(KindModel, "00ab")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	if _, err := s.Get(KindModel, "ffff"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: err = %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 write", st)
	}
	if st.BytesOnDisk != int64(len(payload)) {
		t.Fatalf("BytesOnDisk = %d, want %d", st.BytesOnDisk, len(payload))
	}
	if st.Load.Count != 1 {
		t.Fatalf("load histogram count = %d, want 1", st.Load.Count)
	}
}

func TestStoreReopenSeesArtifacts(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(KindKernel, "px2-py2", []byte("kernel")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(KindSpec, "11", []byte("spec-one")); err != nil {
		t.Fatal(err)
	}

	// A second store on the same root — the restart — sees the artifacts
	// and starts with an accurate bytes-on-disk gauge.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(KindKernel, "px2-py2")
	if err != nil || string(got) != "kernel" {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
	if st := s2.Stats(); st.BytesOnDisk != int64(len("kernel")+len("spec-one")) {
		t.Fatalf("reopened BytesOnDisk = %d, want %d", st.BytesOnDisk, len("kernel")+len("spec-one"))
	}
}

func TestStoreKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := s.Keys(KindSpec); err != nil || len(keys) != 0 {
		t.Fatalf("empty kind: keys = %v, err = %v", keys, err)
	}
	for _, k := range []string{"b2", "a1", "c3"} {
		if err := s.Put(KindSpec, k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys(KindSpec)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	if fmt.Sprint(keys) != "[a1 b2 c3]" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestStoreRejectsUnsafeKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../escape", "a/b", "a b", "k\x00"} {
		if err := s.Put(KindModel, bad, []byte("x")); err == nil {
			t.Errorf("Put accepted unsafe key %q", bad)
		}
		if _, err := s.Get(KindModel, bad); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Get of unsafe key %q = %v, want validation error", bad, err)
		}
	}
}

func TestGetOrFillSingleflight(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	gate := make(chan struct{})
	build := func() ([]byte, error) {
		builds.Add(1)
		<-gate
		return []byte("built"), nil
	}

	const n = 8
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// fromStore may be true for late arrivals (the leader's Put wins
			// the race with their initial probe) — only the build count and
			// the bytes are deterministic here.
			data, _, err := s.GetOrFill(KindModel, "deadbeef", build)
			if err != nil {
				t.Error(err)
			}
			results[i] = data
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1 (singleflight)", got)
	}
	for i := range results {
		if string(results[i]) != "built" {
			t.Fatalf("waiter %d got %q", i, results[i])
		}
	}

	// The fill persisted; the next call is a pure load.
	data, fromStore, err := s.GetOrFill(KindModel, "deadbeef", func() ([]byte, error) {
		t.Fatal("build ran on a warm key")
		return nil, nil
	})
	if err != nil || !fromStore || string(data) != "built" {
		t.Fatalf("warm GetOrFill = %q, fromStore=%v, err=%v", data, fromStore, err)
	}
}

func TestGetOrFillBuildErrorNotCached(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, _, err := s.GetOrFill(KindKernel, "k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	data, fromStore, err := s.GetOrFill(KindKernel, "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || fromStore || string(data) != "ok" {
		t.Fatalf("retry = %q, fromStore=%v, err=%v", data, fromStore, err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	const magic = "ARTTEST\x00"
	e := NewEncoder(magic, 3)
	e.U32(1 << 20)
	e.I32(-5)
	e.U64(1 << 40)
	e.I64(-1 << 40)
	e.F64(3.14159)
	e.String("hello")
	e.Bytes([]byte{0, 1, 2})
	data := e.Finish()

	// Deterministic: identical field sequences produce identical bytes.
	e2 := NewEncoder(magic, 3)
	e2.U32(1 << 20)
	e2.I32(-5)
	e2.U64(1 << 40)
	e2.I64(-1 << 40)
	e2.F64(3.14159)
	e2.String("hello")
	e2.Bytes([]byte{0, 1, 2})
	if !bytes.Equal(data, e2.Finish()) {
		t.Fatal("encoding is not deterministic")
	}

	d, err := NewDecoder(data, magic, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.U32(); v != 1<<20 {
		t.Fatalf("U32 = %d", v)
	}
	if v := d.I32(); v != -5 {
		t.Fatalf("I32 = %d", v)
	}
	if v := d.U64(); v != 1<<40 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.I64(); v != -1<<40 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.F64(); v != 3.14159 {
		t.Fatalf("F64 = %v", v)
	}
	if v := d.String(); v != "hello" {
		t.Fatalf("String = %q", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{0, 1, 2}) {
		t.Fatalf("Bytes = %v", v)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRefusals(t *testing.T) {
	const magic = "ARTTEST\x00"
	e := NewEncoder(magic, 1)
	e.String("payload")
	good := e.Finish()

	if _, err := NewDecoder(good, "WRONGMG\x00", 1); !errors.Is(err, ErrFormat) {
		t.Fatalf("wrong magic: err = %v, want ErrFormat", err)
	}
	if _, err := NewDecoder(good, magic, 2); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("wrong version: err = %v, want ErrVersionMismatch", err)
	}
	if _, err := NewDecoder(good[:len(good)-3], magic, 1); err == nil {
		t.Fatal("truncated artifact decoded")
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := NewDecoder(bad, magic, 1); err == nil {
			t.Fatalf("bit flip at byte %d decoded cleanly", i)
		}
	}
	if _, err := NewDecoder(nil, magic, 1); !errors.Is(err, ErrFormat) {
		t.Fatalf("empty: err = %v, want ErrFormat", err)
	}

	// Trailing payload bytes the codec did not read are refused at Close.
	d, err := NewDecoder(good, magic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); !errors.Is(err, ErrFormat) {
		t.Fatalf("unread payload: Close = %v, want ErrFormat", err)
	}

	// A length prefix promising more bytes than remain is ErrTruncated,
	// not a giant allocation.
	e2 := NewEncoder(magic, 1)
	e2.U32(1 << 30)
	d2, err := NewDecoder(e2.Finish(), magic, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2.Bytes()
	if err := d2.Close(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("oversized length: err = %v, want ErrTruncated", err)
	}
}

func TestStoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindModel, "deadbeef", []byte("corrupt bytes")); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(KindModel, "deadbeef"); err != nil {
		t.Fatal(err)
	}
	// The artifact is gone from the Get path but kept on disk as .bad.
	if _, err := s.Get(KindModel, "deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after quarantine: err = %v, want ErrNotFound", err)
	}
	bad := filepath.Join(dir, KindModel, "deadbeef.bad")
	if got, err := os.ReadFile(bad); err != nil || string(got) != "corrupt bytes" {
		t.Fatalf("quarantined file = %q, %v; want original bytes", got, err)
	}
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if st.BytesOnDisk != 0 {
		t.Fatalf("BytesOnDisk = %d, want 0 after quarantine", st.BytesOnDisk)
	}
	if keys, err := s.Keys(KindModel); err != nil || len(keys) != 0 {
		t.Fatalf("Keys after quarantine = %v, %v; want none", keys, err)
	}

	// Quarantining a missing key is a no-op, not an error (a peer replica
	// sharing the root may have moved it first).
	if err := s.Quarantine(KindModel, "deadbeef"); err != nil {
		t.Fatalf("double quarantine: %v", err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined after no-op = %d, want 1", st.Quarantined)
	}

	// A refill under the same key works and a later quarantine overwrites
	// the stale .bad file.
	if err := s.Put(KindModel, "deadbeef", []byte("rebuilt")); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(KindModel, "deadbeef"); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(bad); string(got) != "rebuilt" {
		t.Fatalf("overwritten .bad = %q, want %q", got, "rebuilt")
	}
}

func TestStoreQuarantinedKeyRefills(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindKernel, "px1-py1", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(KindKernel, "px1-py1"); err != nil {
		t.Fatal(err)
	}
	// The load-through pattern after a quarantine: the fill path runs the
	// build and re-publishes a good artifact under the original key.
	data, fromStore, err := s.GetOrFill(KindKernel, "px1-py1", func() ([]byte, error) {
		return []byte("good"), nil
	})
	if err != nil || fromStore || string(data) != "good" {
		t.Fatalf("GetOrFill after quarantine = %q, fromStore=%v, err=%v", data, fromStore, err)
	}
	if got, err := s.Get(KindKernel, "px1-py1"); err != nil || string(got) != "good" {
		t.Fatalf("re-published artifact = %q, %v", got, err)
	}
}

func TestStoreOpenSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	kindDir := filepath.Join(dir, KindKernel)
	if err := os.MkdirAll(kindDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A crashed writer's leftovers, plus a real artifact that must survive.
	orphan := filepath.Join(kindDir, "abc123.tmp-9981734")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(kindDir, "abc123.art")
	if err := os.WriteFile(keep, []byte("published"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("orphan temp still on disk after Open: %v", err)
	}
	if got, err := s.Get(KindKernel, "abc123"); err != nil || string(got) != "published" {
		t.Fatalf("published artifact = %q, %v; must survive the sweep", got, err)
	}
	st := s.Stats()
	if st.TempsSwept != 1 {
		t.Fatalf("TempsSwept = %d, want 1", st.TempsSwept)
	}
	// The gauge counts only published artifacts, never swept temps.
	if st.BytesOnDisk != int64(len("published")) {
		t.Fatalf("BytesOnDisk = %d, want %d", st.BytesOnDisk, len("published"))
	}
}
