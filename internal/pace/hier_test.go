package pace

import (
	"testing"

	"pacesweep/internal/capp"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/platform"
)

// hierTestModel is a fitted two-level model: a NUMAlink-fast intra-node
// tier under the flat test model's Myrinet-class inter-node tier, four
// ranks per node.
func hierTestModel() *hwmodel.Model {
	m := testModel()
	m.Name = "test-hier"
	m.Topology = platform.Topology{CoresPerNode: 4}
	m.Levels = []hwmodel.NetLevel{
		{
			Send:     platform.Piecewise{A: 2048, B: 1.2, C: 0.0008, D: 1.8, E: 0.00055},
			Recv:     platform.Piecewise{A: 2048, B: 1.4, C: 0.0008, D: 2.1, E: 0.00055},
			PingPong: platform.Piecewise{A: 2048, B: 3.4, C: 0.002, D: 5.1, E: 0.0012},
		},
		{Send: m.Send, Recv: m.Recv, PingPong: m.PingPong},
	}
	// Flat fields mirror level 0 (bench.BuildModel's convention).
	m.Send, m.Recv, m.PingPong = m.Levels[0].Send, m.Levels[0].Recv, m.Levels[0].PingPong
	return m
}

func hierEvaluator(t *testing.T, m *hwmodel.Model) *Evaluator {
	t.Helper()
	analysis, err := capp.SweepKernelAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(m, analysis)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestHierarchicalBackendsBitIdentical is the acceptance harness for
// class-priced evaluation: a hierarchical model's prediction must be
// bit-identical across the trace-replay and event backends.
func TestHierarchicalBackendsBitIdentical(t *testing.T) {
	cfg := paperConfig(4, 2) // 8 ranks over 2 nodes of 4
	var ref *Prediction
	for _, sched := range []string{SchedulerTrace, SchedulerEvent} {
		ev := hierEvaluator(t, hierTestModel())
		ev.Scheduler = sched
		p, err := ev.Predict(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if ref == nil {
			ref = p
			continue
		}
		if p.Total != ref.Total || p.SweepPerIter != ref.SweepPerIter {
			t.Errorf("%s: total %v sweep %v, want %v / %v (trace)",
				sched, p.Total, p.SweepPerIter, ref.Total, ref.SweepPerIter)
		}
	}
	if ref == nil || ref.Total <= 0 {
		t.Fatalf("degenerate prediction: %+v", ref)
	}
}

// TestHierarchicalDiffersFromFlattenedEquivalent pins the modelling point:
// a two-level platform must predict differently from both of its
// single-class flattenings, and land between them (some pairs are cheap
// intra-node links, some are not).
func TestHierarchicalDiffersFromFlattenedEquivalent(t *testing.T) {
	cfg := paperConfig(4, 2)
	hier := hierTestModel()

	flatAt := func(level int) *hwmodel.Model {
		m := testModel()
		m.Send = hier.Levels[level].Send
		m.Recv = hier.Levels[level].Recv
		m.PingPong = hier.Levels[level].PingPong
		return m
	}
	predict := func(m *hwmodel.Model) float64 {
		p, err := hierEvaluator(t, m).Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p.Total
	}
	h := predict(hier)
	intra := predict(flatAt(0))
	inter := predict(flatAt(1))
	if h == intra || h == inter {
		t.Fatalf("hierarchical prediction %v equals a flattened equivalent (intra %v, inter %v)", h, intra, inter)
	}
	if !(intra < h && h < inter) {
		t.Errorf("hierarchical %v must lie between all-intra %v and all-inter %v", h, intra, inter)
	}
}

// TestHierarchicalMemoDistinct guards the memo key: two models sharing
// flat curves but differing in a deep level (or topology) must never share
// a prediction memo entry.
func TestHierarchicalMemoDistinct(t *testing.T) {
	cfg := paperConfig(4, 2)
	memo := NewPredictionMemo()

	a := hierTestModel()
	b := hierTestModel()
	b.Levels[1].PingPong.D *= 4 // same flat fields, different deep tier
	c := hierTestModel()
	c.Topology.CoresPerNode = 2 // same curves, different placement

	totals := make(map[float64]bool)
	for _, m := range []*hwmodel.Model{a, b, c} {
		ev := hierEvaluator(t, m)
		ev.Memo = memo
		p, err := ev.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		totals[p.Total] = true
	}
	if len(totals) != 3 {
		t.Fatalf("expected 3 distinct predictions under one shared memo, got %v", totals)
	}
	if memo.Len() != 3 {
		t.Fatalf("memo holds %d entries, want 3", memo.Len())
	}
}

// TestTraceSharedAcrossHierarchy checks the tentpole's cache property: the
// compiled trace is shape-keyed, so hierarchical and flat platforms of the
// same configuration shape replay one script (classes are resolved at
// replay bind time, not recorded).
func TestTraceSharedAcrossHierarchy(t *testing.T) {
	cfg := paperConfig(2, 2)
	before := TraceCacheStats()

	for _, m := range []*hwmodel.Model{testModel(), hierTestModel()} {
		ev := hierEvaluator(t, m)
		ev.Scheduler = SchedulerTrace
		if _, err := ev.Predict(cfg); err != nil {
			t.Fatal(err)
		}
	}
	after := TraceCacheStats()
	if compiled := (after.Misses - before.Misses); compiled > 1 {
		t.Errorf("expected at most one trace compilation for one shape, got %d", compiled)
	}
	if after.Hits == before.Hits {
		t.Error("second platform must replay the first platform's compiled trace")
	}
}

// TestClosedFormHierarchyAware pins the closed form's class pricing: on a
// 4x2 array over 4-core nodes the east/west links stay intra-node but the
// north/south links cross nodes, so the hierarchical closed form must
// differ from both single-level flattenings (it prices each direction at
// the worst class among that direction's links).
func TestClosedFormHierarchyAware(t *testing.T) {
	cfg := paperConfig(4, 2)
	hier := hierTestModel()
	closed := func(m *hwmodel.Model) float64 {
		p, err := hierEvaluator(t, m).PredictClosedForm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p.Total
	}
	flatAt := func(level int) *hwmodel.Model {
		m := testModel()
		m.Send = hier.Levels[level].Send
		m.Recv = hier.Levels[level].Recv
		m.PingPong = hier.Levels[level].PingPong
		return m
	}
	h := closed(hier)
	intra := closed(flatAt(0))
	inter := closed(flatAt(1))
	if h == intra {
		t.Error("hierarchical closed form must not collapse to the all-intra flattening")
	}
	if h == inter {
		t.Error("hierarchical closed form must not collapse to the all-inter flattening")
	}
	if !(intra < h && h < inter) {
		t.Errorf("closed form %v must lie between all-intra %v and all-inter %v", h, intra, inter)
	}
	// And it should stay in the same ballpark as the template engine on
	// the hierarchical model (the flat agreement test's convention).
	tp, err := hierEvaluator(t, hier).Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel := (h - tp.Total) / tp.Total; rel > 0.10 || rel < -0.10 {
		t.Errorf("closed form %v vs template %v: relative gap %.1f%%", h, tp.Total, rel*100)
	}
}
