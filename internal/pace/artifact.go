package pace

// Artifact-store load-through for the cost-kernel caches. When a store is
// attached (SetArtifactStore, normally by paceserve -artifact-dir), the
// per-family kernel caches fault in from disk on miss and write back on
// build: a restarted process re-prices persisted kernels instead of
// re-evaluating the subtask flows. Traces are not persisted: a class
// compile (compileTrace) costs about what decoding one did. The store is
// strictly an accelerator — any store or decode trouble falls back to
// building live, so a poisoned artifact directory can never take
// evaluation down.

import (
	"fmt"
	"sync/atomic"
	"time"

	"pacesweep/internal/artifact"
	"pacesweep/internal/lru"
)

// artifactStore is the process-global store attached by SetArtifactStore;
// nil (the default) disables persistence entirely.
var artifactStore atomic.Pointer[artifact.Store]

// SetArtifactStore attaches (or, with nil, detaches) the on-disk artifact
// store the kernel caches load through. Process-global: every evaluator
// family shares one store, matching the one-directory-per-fleet deployment
// model.
func SetArtifactStore(s *artifact.Store) { artifactStore.Store(s) }

// --- cost-kernel persistence ---

const (
	// kernelMagic identifies a cost-kernel artifact.
	kernelMagic = "PACEKRN\x00"
	// KernelCodecVersion is the current kernel artifact version. Bump it on
	// any change to the costKernel table layout *or* to the flow evaluation
	// embedded in buildKernel — persisted kernels bake the priced tables in.
	KernelCodecVersion uint16 = 1
)

// kernelArtifactKey is the kernel's content address: the full kernel cache
// key plus the hardware model fingerprint that priced it. Opcode-costed
// kernels are never persisted — the opcode table is not part of the model
// fingerprint, so two models sharing a fingerprint may price opcode
// kernels differently — hence the key needs no opcode bit.
func kernelArtifactKey(k kernelKey, hwfp uint64) string {
	h := lru.NewHasher()
	h.Int(k.nx)
	h.Int(k.ny)
	h.Int(k.nz)
	h.Int(k.mk)
	h.Int(k.mmi)
	h.Int(k.angles)
	h.Float64(k.mflops)
	h.Uint64(hwfp)
	return fmt.Sprintf("%016x", h.Sum())
}

// encodeKernel serialises a cost kernel into a checksummed artifact.
func encodeKernel(k *costKernel) []byte {
	e := artifact.NewEncoder(kernelMagic, KernelCodecVersion)
	e.I32(int32(k.nab))
	e.I32(int32(k.nkb))
	e.F64(k.src)
	e.F64(k.ferr)
	e.F64(k.fullBlock)
	e.U32(uint32(len(k.charges)))
	for _, v := range k.charges {
		e.F64(v)
	}
	e.U32(uint32(len(k.sizes)))
	for _, v := range k.sizes {
		e.I64(int64(v))
	}
	return e.Finish()
}

// decodeKernel loads a kernel artifact, refusing corruption, version skew
// and table layouts inconsistent with the block counts.
func decodeKernel(data []byte) (*costKernel, error) {
	d, err := artifact.NewDecoder(data, kernelMagic, KernelCodecVersion)
	if err != nil {
		return nil, err
	}
	k := &costKernel{
		nab: int(d.I32()), nkb: int(d.I32()),
		src: d.F64(), ferr: d.F64(), fullBlock: d.F64(),
	}
	if n := d.Len(); n > 0 {
		k.charges = make([]float64, n)
		for i := range k.charges {
			k.charges[i] = d.F64()
		}
	}
	if n := d.Len(); n > 0 {
		k.sizes = make([]int, n)
		for i := range k.sizes {
			k.sizes[i] = int(d.I64())
		}
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	if k.nab <= 0 || k.nkb <= 0 ||
		len(k.charges) != k.nab*k.nkb+2 || len(k.sizes) != 2*k.nab*k.nkb {
		return nil, fmt.Errorf("%w: kernel tables inconsistent with %dx%d blocks",
			artifact.ErrFormat, k.nab, k.nkb)
	}
	return k, nil
}

// loadOrBuildKernel is kernelFor's miss path: fault the kernel in from the
// artifact store when one is attached and the kernel is persistable
// (opcode-costed kernels are not — see kernelArtifactKey), else evaluate
// the subtask flows live.
func (e *Evaluator) loadOrBuildKernel(key kernelKey, cfg Config) (*costKernel, error) {
	s := artifactStore.Load()
	if s == nil || key.opcode {
		return e.buildKernel(cfg)
	}
	var built *costKernel
	var buildErr error
	data, fromStore, err := s.GetOrFill(artifact.KindKernel, kernelArtifactKey(key, e.HW.Fingerprint()), func() ([]byte, error) {
		k, err := e.buildKernel(cfg)
		if err != nil {
			buildErr = err
			return nil, err
		}
		built = k
		return encodeKernel(k), nil
	})
	switch {
	case buildErr != nil:
		return nil, buildErr
	case err != nil:
		return e.buildKernel(cfg)
	case built != nil && !fromStore:
		return built, nil
	}
	start := time.Now()
	k, derr := decodeKernel(data)
	if derr != nil {
		_ = s.Quarantine(artifact.KindKernel, kernelArtifactKey(key, e.HW.Fingerprint()))
		return e.buildKernel(cfg)
	}
	s.ObserveDecode(time.Since(start))
	return k, nil
}
