package hwmodel

// Binary codec for fitted hardware models, the artifact-store side of the
// benchmarking pipeline: a Model fitted once (seconds of simulated
// benchmarking) persists under its platform spec's fingerprint and loads
// back byte- and fingerprint-identically, so restarted replicas skip the
// fit entirely.

import (
	"fmt"
	"sort"

	"pacesweep/internal/artifact"
	"pacesweep/internal/clc"
	"pacesweep/internal/platform"
)

const (
	// modelMagic identifies a fitted-model artifact.
	modelMagic = "PACEHWM\x00"
	// ModelCodecVersion is the current model artifact version; decoders
	// refuse other versions.
	ModelCodecVersion uint16 = 1
)

// EncodeBinary serialises the model into a self-describing, checksummed
// artifact. The opcode cost table is written in sorted opcode order, so
// the encoding is deterministic: encode→decode→encode is byte-identical.
func (m *Model) EncodeBinary() []byte {
	e := artifact.NewEncoder(modelMagic, ModelCodecVersion)
	e.String(m.Name)
	e.F64(m.MFLOPS)
	ops := make([]string, 0, len(m.OpcodeCosts))
	for op := range m.OpcodeCosts {
		ops = append(ops, string(op))
	}
	sort.Strings(ops)
	e.U32(uint32(len(ops)))
	for _, op := range ops {
		e.String(op)
		e.F64(m.OpcodeCosts[clc.Op(op)])
	}
	encodeCurve(e, m.Send)
	encodeCurve(e, m.Recv)
	encodeCurve(e, m.PingPong)
	e.U32(uint32(len(m.Levels)))
	for _, lv := range m.Levels {
		encodeCurve(e, lv.Send)
		encodeCurve(e, lv.Recv)
		encodeCurve(e, lv.PingPong)
	}
	e.I64(int64(m.Topology.CoresPerNode))
	e.I64(int64(m.Topology.NodesPerCluster))
	return e.Finish()
}

// DecodeModel loads a model artifact encoded by EncodeBinary, verifying
// the envelope (magic, version, checksum) before reading a field and
// validating the decoded model; corruption or truncation can never yield a
// partial model. Every accepted artifact re-encodes to its own bytes.
func DecodeModel(data []byte) (*Model, error) {
	d, err := artifact.NewDecoder(data, modelMagic, ModelCodecVersion)
	if err != nil {
		return nil, err
	}
	m := &Model{Name: d.String(), MFLOPS: d.F64()}
	sorted := true
	if n := d.Len(); n > 0 {
		m.OpcodeCosts = make(clc.CostTable, n)
		var prev clc.Op
		for i := 0; i < n; i++ {
			op := clc.Op(d.String())
			sorted = sorted && (i == 0 || op > prev)
			prev = op
			m.OpcodeCosts[op] = d.F64()
		}
	}
	m.Send = decodeCurve(d)
	m.Recv = decodeCurve(d)
	m.PingPong = decodeCurve(d)
	if n := d.Len(); n > 0 {
		m.Levels = make([]NetLevel, n)
		for i := range m.Levels {
			m.Levels[i] = NetLevel{Send: decodeCurve(d), Recv: decodeCurve(d), PingPong: decodeCurve(d)}
		}
	}
	m.Topology = platform.Topology{CoresPerNode: int(d.I64()), NodesPerCluster: int(d.I64())}
	if err := d.Close(); err != nil {
		return nil, err
	}
	// EncodeBinary writes the opcode table sorted and without duplicates,
	// so any other order would not re-encode to the bytes it came from.
	if !sorted {
		return nil, fmt.Errorf("%w: opcode table names not strictly increasing", artifact.ErrFormat)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", artifact.ErrFormat, err)
	}
	return m, nil
}

func encodeCurve(e *artifact.Encoder, p platform.Piecewise) {
	e.I64(int64(p.A))
	e.F64(p.B)
	e.F64(p.C)
	e.F64(p.D)
	e.F64(p.E)
}

func decodeCurve(d *artifact.Decoder) platform.Piecewise {
	return platform.Piecewise{A: int(d.I64()), B: d.F64(), C: d.F64(), D: d.F64(), E: d.F64()}
}
