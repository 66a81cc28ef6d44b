package experiments

// The paper-versus-reproduction record: every experiment of the package
// rendered as EXPERIMENTS.md. cmd/genexperiments writes it to stdout, and
// TestRecordMatchesExperimentsMD holds the checked-in copy to it byte for
// byte.

import (
	"fmt"
	"io"
	"math"

	"pacesweep/internal/stats"
)

// WriteRecord runs every experiment of the reproduction and writes the
// EXPERIMENTS.md record to w. It stops at the first experiment that fails.
func WriteRecord(w io.Writer) error {
	fmt.Fprintln(w, "# EXPERIMENTS — paper versus reproduction")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Generated by `go run ./cmd/genexperiments`. Every table and figure of the")
	fmt.Fprintln(w, "paper's evaluation is regenerated here: \"measured\" values come from the")
	fmt.Fprintln(w, "cluster simulator (ground-truth platform models, internal/platform),")
	fmt.Fprintln(w, "\"predicted\" values from the PACE model calibrated purely through simulated")
	fmt.Fprintln(w, "benchmarking (internal/bench). See DESIGN.md for the substitution rules and")
	fmt.Fprintln(w, "the epistemic firewall between the two sides.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Reproduction claims are about *shape*: error bands and signs, scaling")
	fmt.Fprintln(w, "trends and crossovers. Absolute seconds land near the paper's because the")
	fmt.Fprintln(w, "platform truths are calibrated to its quoted achieved rates (110/350/225/340")
	fmt.Fprintln(w, "MFLOPS), but our pipeline-fill coefficient (3(PX-1)+2(PY-1), derived in")
	fmt.Fprintln(w, "internal/pace/closedform.go) is somewhat shallower than the paper's")
	fmt.Fprintln(w, "machines exhibited (~3.7 stages per array unit), so large arrays run a few")
	fmt.Fprintln(w, "seconds faster here than in the published tables.")
	fmt.Fprintln(w)

	// --- Validation tables ---
	type tableRun struct {
		name string
		run  func() (*Validation, error)
		note string
	}
	for _, tr := range []tableRun{
		{"Table 1", Table1,
			"Intel Pentium III 1.4GHz 2-way SMP cluster, Myrinet 2000. Paper: max error < 10%, average 3.41%, variance 4.33."},
		{"Table 2", Table2,
			"AMD Opteron 2GHz 2-way SMP cluster, Gigabit Ethernet. Paper: max error < 10%, average 5.35%, variance 2.24."},
		{"Table 3", Table3,
			"SGI Altix 56-way Itanium 2 1.6GHz, NUMAlink 4. Paper: error < 10%, average 6.23%, variance 0.78; the model under-predicts on every row."},
	} {
		v, err := tr.run()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## %s — validation on %s\n\n", tr.name, v.Platform.Name)
		fmt.Fprintln(w, tr.note)
		fmt.Fprintln(w)
		fmt.Fprintf(w, "Model achieved rate from simulated profiling: %.0f MFLOPS (paper quotes the same platform rates by construction).\n\n", v.ModelMFLOPS)
		fmt.Fprintln(w, "| Data Size | PEs | Array | Meas(s) | Pred(s) | Err(%) | paper Meas | paper Pred | paper Err |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
		for _, r := range v.Rows {
			fmt.Fprintf(w, "| %dx%dx%d | %d | %s | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f |\n",
				r.Grid.NX, r.Grid.NY, r.Grid.NZ, r.Decomp.Size(), r.Decomp,
				r.Measured, r.Predicted, r.ErrorPct,
				r.Paper.Measured, r.Paper.Predicted, r.Paper.ErrorPct)
		}
		fmt.Fprintf(w, "\n**Summary:** average |error| %.2f%% (paper %.2f%%), max |error| %.2f%% (paper bound 10%%), variance %.2f (paper %.2f).\n\n",
			v.AvgAbsErr, v.PaperAvgErr, v.MaxAbsErr, v.VarErr, v.PaperVarErr)
	}

	// --- Speculative figures ---
	for _, fr := range []struct {
		name string
		run  func() (*ScalingStudy, error)
		note string
	}{
		{"Figure 8", Figure8,
			"Twenty-million-cell problem (5x5x100 cells/processor, mk=10, mmi=3, 340 MFLOPS, hypothetical Opteron SMP + Myrinet 2000). Paper's curve: ~0.2 s at 1 processor rising below ~1.5 s at 8000, with the +25%/+50% rate curves uniformly below."},
		{"Figure 9", Figure9,
			"One-billion-cell problem (25x25x200 cells/processor). Paper's curve: ~7-8 s at 1 processor rising to ~25-30 s at 8000 — \"good scaling behaviour\" that still grossly overruns ASCI goals at 30 groups x 1000 time steps."},
	} {
		s, err := fr.run()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## %s — %s\n\n", fr.name, s.Name)
		fmt.Fprintln(w, fr.note)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| Procs | actual (s) | +25% (s) | +50% (s) | LogGP (s) | Hoisie (s) |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|")
		for i, p := range s.Procs {
			fmt.Fprintf(w, "| %d | %.3f | %.3f | %.3f | %.3f | %.3f |\n",
				p, s.Actual[i], s.Plus25[i], s.Plus50[i], s.LogGPTimes[i], s.HoisieTimes[i])
		}
		last := len(s.Procs) - 1
		fmt.Fprintf(w, "\n**Shape checks:** monotone growth with processors; +50%% curve is 1/1.5 of actual in the compute-bound limit; 8000-processor time %.2f s (paper regime holds); related models stay within ~25%% of PACE — the paper's \"results concur with other related analytical models\".\n\n",
			s.Actual[last])
		// ASCI goal extrapolation, as in the paper's Section 6 note.
		if s.TotalCells == 1_000_000_000 {
			hours := s.Actual[last] * 30 * 1000 / 3600
			fmt.Fprintf(w, "Scaled to a realistic 30-group, 1000-step run the 8000-processor time becomes ~%.0f hours, reproducing the paper's conclusion that this configuration \"will grossly overrun ASCI execution time goals\".\n\n", hours)
		}
	}

	// --- Section 4 ablation ---
	a, err := AblationOpcode()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Section 4 ablation — old opcode benchmarking versus coarse achieved-rate benchmarking")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The paper motivates its coarser benchmarking by the failure of per-opcode")
	fmt.Fprintln(w, "micro-benchmark costs on superscalar processors: \"Predictions based on this")
	fmt.Fprintln(w, "approach in some cases (such as on the AMD Opteron 2-way SMP cluster) gave a")
	fmt.Fprintln(w, "prediction error as large as 50%\".")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Data Size | Array | Meas(s) | New Pred(s) | New Err(%) | Old Pred(s) | Old Err(%) |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "| %dx%dx%d | %s | %.2f | %.2f | %.2f | %.2f | %.2f |\n",
			r.Grid.NX, r.Grid.NY, r.Grid.NZ, r.Decomp, r.Measured,
			r.NewPred, r.NewErrPct, r.OldPred, r.OldErrPct)
	}
	fmt.Fprintf(w, "\n**Summary:** new method max |error| %.2f%% (paper: <10%%); old opcode method max |error| %.2f%% (paper: \"as large as 50%%\").\n\n",
		a.MaxNewAbsErr, a.MaxOldAbsErr)

	// --- Trend note (Section 5) ---
	v1, err := Table1()
	if err != nil {
		return err
	}
	var xs, ys []float64
	for _, r := range v1.Rows {
		xs = append(xs, float64(3*(r.Decomp.PX-1)+2*(r.Decomp.PY-1)))
		ys = append(ys, r.Measured)
	}
	b, c := stats.LinearFit(xs, ys)
	var ssRes, ssTot float64
	mean := stats.Mean(ys)
	for i := range xs {
		ssRes += math.Pow(ys[i]-(b+c*xs[i]), 2)
		ssTot += math.Pow(ys[i]-mean, 2)
	}
	fmt.Fprintln(w, "## Section 5 note — linear growth with pipeline stages")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Regressing the Table 1 measurements against the pipeline fill depth 3(PX-1)+2(PY-1) gives R^2 = %.3f (slope %.3f s/stage), reproducing the paper's \"linear increase in runtime ... due to the increase in the number of pipeline stages\".\n\n", 1-ssRes/ssTot, c)

	// --- Extension experiments beyond the paper's own evaluation ---
	o, err := OverlapStudy()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Extension — communication/computation overlap (Section 4.4 claim, paper future work)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The paper argues its simple communication model suffices because \"one way")
	fmt.Fprintln(w, "blocking sends and receives ... dominate the application\", and defers")
	fmt.Fprintln(w, "overlapped communication to future work. Restructuring the sweep skeleton")
	fmt.Fprintln(w, "with pre-posted nonblocking receives confirms it: every cell of a block")
	fmt.Fprintln(w, "depends on that block's inflow faces, so no wait can move past useful work.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Array | Blocking (s) | Overlapped (s) | Gain (%) |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, r := range o.Rows {
		fmt.Fprintf(w, "| %s | %.3f | %.3f | %.3f |\n", r.Decomp, r.Blocking, r.Overlapped, r.DeltaPct)
	}
	fmt.Fprintf(w, "\nMax |gain| %.4f%%: the blocking point-to-point model is sufficient for SWEEP3D.\n\n", o.MaxDelta)

	hc, err := RunHealthCheck(6, 10, 6006)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Extension — run-time verification / fault detection (Section 1 life-cycle scenario)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "\"After installation, predicted results can then be used to validate whether")
	fmt.Fprintln(w, "the installation was successful ... during maintenance such approaches can")
	fmt.Fprintln(w, "indicate any faults that affect the system performance.\" The healthy")
	fmt.Fprintln(w, "Opteron cluster tracks its model within the validated tolerance; with an")
	fmt.Fprintf(w, "injected interconnect fault (%gx message costs) every configuration is flagged.\n\n", hc.FaultFactor)
	fmt.Fprintln(w, "| Array | Expected (s) | Healthy meas (s) | Err (%) | Degraded meas (s) | Err (%) | Verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for i := range hc.Healthy {
		h, d2 := hc.Healthy[i], hc.Degraded[i]
		verdict := "OK"
		if d2.Flagged {
			verdict = "FAULT FLAGGED"
		}
		fmt.Fprintf(w, "| %s | %.2f | %.2f | %.2f | %.2f | %.2f | %s |\n",
			h.Decomp, h.Expected, h.Measured, h.ErrorPct, d2.Measured, d2.ErrorPct, verdict)
	}
	fmt.Fprintf(w, "\nHealthy: %d/%d flagged (no false alarms). Degraded: %d/%d flagged.\n\n",
		hc.HealthyFlags, len(hc.Healthy), hc.DegradedFlags, len(hc.Degraded))

	fmt.Fprintln(w, "## Figures 1-7")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figures 1-7 of the paper are schematics and code listings, not data:")
	fmt.Fprintln(w, "the sweep schematic (Fig. 1) is exercised by examples/quickstart; the PACE")
	fmt.Fprintln(w, "layering (Figs. 2-3) is the package structure (capp/psl/hwmodel/pace); the")
	fmt.Fprintln(w, "PSL and HMCL listings (Figs. 4-7) are shipped verbatim-in-spirit under")
	fmt.Fprintln(w, "internal/psl/models/ and evaluate identically to the Go-native model")
	fmt.Fprintln(w, "(TestSweep3DModelMatchesGoNativePACE).")
	return nil
}
