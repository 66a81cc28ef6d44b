package hwmodel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"

	"pacesweep/internal/artifact"
	"pacesweep/internal/clc"
	"pacesweep/internal/platform"
)

func testModels() map[string]*Model {
	flat := &Model{
		Name:   "flat-test",
		MFLOPS: 123.5,
		OpcodeCosts: clc.CostTable{
			"FLML": 3.1e-9, "FLAD": 2.2e-9, "LFOR": 1.5e-9,
		},
		Send:     platform.Piecewise{A: 512, B: 6, C: 0.008, D: 8, E: 0.0042},
		Recv:     platform.Piecewise{A: 512, B: 7, C: 0.008, D: 9, E: 0.0042},
		PingPong: platform.Piecewise{A: 512, B: 26, C: 0.02, D: 32, E: 0.0088},
	}
	hier := &Model{
		Name:     "hier-test",
		MFLOPS:   300,
		Send:     platform.Piecewise{A: 256, B: 2, C: 0.004, D: 3, E: 0.002},
		Recv:     platform.Piecewise{A: 256, B: 2, C: 0.004, D: 3, E: 0.002},
		PingPong: platform.Piecewise{A: 256, B: 9, C: 0.01, D: 12, E: 0.005},
		Levels: []NetLevel{
			{
				Send:     platform.Piecewise{A: 256, B: 2, C: 0.004, D: 3, E: 0.002},
				Recv:     platform.Piecewise{A: 256, B: 2, C: 0.004, D: 3, E: 0.002},
				PingPong: platform.Piecewise{A: 256, B: 9, C: 0.01, D: 12, E: 0.005},
			},
			{
				Send:     platform.Piecewise{A: 1024, B: 20, C: 0.02, D: 28, E: 0.009},
				Recv:     platform.Piecewise{A: 1024, B: 22, C: 0.02, D: 30, E: 0.009},
				PingPong: platform.Piecewise{A: 1024, B: 80, C: 0.05, D: 95, E: 0.02},
			},
		},
		Topology: platform.Topology{CoresPerNode: 4, NodesPerCluster: 8},
	}
	return map[string]*Model{"flat": flat, "hierarchical": hier}
}

// TestModelCodecRoundTrip pins the codec contract on flat and hierarchical
// models: encode→decode→encode byte-identical, structural equality, and —
// the property serving identity rests on — fingerprint equality.
func TestModelCodecRoundTrip(t *testing.T) {
	for name, m := range testModels() {
		t.Run(name, func(t *testing.T) {
			data := m.EncodeBinary()
			got, err := DecodeModel(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m, got) {
				t.Fatalf("decoded model differs:\n got %+v\nwant %+v", got, m)
			}
			if !bytes.Equal(got.EncodeBinary(), data) {
				t.Fatal("encode→decode→encode is not byte-identical")
			}
			if m.Fingerprint() != got.Fingerprint() {
				t.Fatalf("fingerprint moved across the codec: %016x != %016x",
					got.Fingerprint(), m.Fingerprint())
			}
			// Determinism: re-encoding the source is also byte-identical
			// (the opcode table is map-ordered in memory, sorted on disk).
			if !bytes.Equal(m.EncodeBinary(), data) {
				t.Fatal("re-encoding the source is not deterministic")
			}
		})
	}
}

// TestModelCodecRefusesCorruption flips and truncates a valid artifact;
// decode must fail every time and never return a partial model.
func TestModelCodecRefusesCorruption(t *testing.T) {
	data := testModels()["hierarchical"].EncodeBinary()
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x10
		if m, err := DecodeModel(bad); err == nil {
			t.Fatalf("bit flip at byte %d decoded: %+v", i, m)
		}
	}
	for _, cut := range []int{0, 7, len(data) / 2, len(data) - 1} {
		if _, err := DecodeModel(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	if _, err := DecodeModel(data[:len(data)-2]); !errors.Is(err, artifact.ErrChecksum) {
		t.Fatalf("truncated artifact: err = %v, want ErrChecksum", err)
	}
}

// TestModelCodecRefusesInvalidModel pins that a well-formed artifact
// holding a semantically invalid model (here: a zero achieved rate) is
// refused by the same validation gate live fitting goes through.
func TestModelCodecRefusesInvalidModel(t *testing.T) {
	m := *testModels()["flat"]
	m.MFLOPS = 0
	if _, err := DecodeModel(m.EncodeBinary()); err == nil {
		t.Fatal("invalid model decoded")
	}
}

// resealed rewrites an artifact's payload length and FNV-1a checksum
// trailer in place to match its body and returns it, so an edited payload
// reaches the model decoder instead of stopping at the envelope check.
func resealed(data []byte) []byte {
	const headerLen = 8 + 2 + 8 // magic, version, payload length
	body := data[:len(data)-8]
	binary.LittleEndian.PutUint64(body[10:], uint64(len(body)-headerLen))
	h := fnv.New64a()
	h.Write(body)
	binary.LittleEndian.PutUint64(data[len(body):], h.Sum64())
	return data
}

// TestModelCodecRefusesUnsortedOpcodes: EncodeBinary writes the opcode
// table sorted by name, so an artifact whose table is out of order or
// names one opcode twice would not re-encode to its own bytes; the
// decoder refuses it with ErrFormat.
func TestModelCodecRefusesUnsortedOpcodes(t *testing.T) {
	m := testModels()["flat"]
	data := m.EncodeBinary()
	// The payload starts with the name (length-prefixed) and the MFLOPS
	// rate; then comes the table's count and its entries, each a 4-byte
	// name length, the name and an 8-byte cost.
	const entry = 4 + 4 + 8 // every test opcode name has four letters
	table := 18 + 4 + len(m.Name) + 8 + 4
	if got := binary.LittleEndian.Uint32(data[table-4:]); got != 3 {
		t.Fatalf("opcode count at offset %d = %d, want 3", table-4, got)
	}
	e0, e1 := data[table:table+entry], data[table+entry:table+2*entry]
	for name, edit := range map[string]func(b []byte){
		"swapped":   func(b []byte) { copy(b[table:], e1); copy(b[table+entry:], e0) },
		"duplicate": func(b []byte) { copy(b[table+entry:], e0) },
	} {
		bad := append([]byte(nil), data...)
		edit(bad)
		if _, err := DecodeModel(resealed(bad)); !errors.Is(err, artifact.ErrFormat) {
			t.Fatalf("%s opcode table: err = %v, want ErrFormat", name, err)
		}
	}
	if _, err := DecodeModel(resealed(append([]byte(nil), data...))); err != nil {
		t.Fatalf("resealed valid artifact: %v", err)
	}
}

// FuzzDecodeModel feeds arbitrary bytes to the model decoder, as they are
// and resealed (payload length and checksum rewritten), so that mutations
// reach the decoder's fields rather than stopping at the envelope.
// Decoding never panics, and an accepted input re-encodes byte-identically.
// The seed corpus in testdata/fuzz/FuzzDecodeModel holds the EncodeBinary
// artifacts of testModels().
func FuzzDecodeModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(data)
		if err != nil && len(data) >= 18+8 {
			data = resealed(append([]byte(nil), data...))
			m, err = DecodeModel(data)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(m.EncodeBinary(), data) {
			t.Fatal("accepted input does not re-encode byte-identically")
		}
	})
}
