// Package pacesweep reproduces the system described in "Predictive
// Performance Analysis of a Parallel Pipelined Synchronous Wavefront
// Application for Commodity Processor Cluster Systems" (Mudalige, Jarvis,
// Spooner, Nudd — IEEE CLUSTER 2006).
//
// The repository contains:
//
//   - a from-scratch Go implementation of the ASCI SWEEP3D pipelined
//     wavefront Sn transport benchmark (internal/sweep) running over an
//     MPI-like message-passing runtime (internal/mp) that doubles as a
//     virtual-time cluster simulator. Ranks run on an event-driven
//     cooperative scheduler ordered by a virtual-clock heap — lock-free,
//     deterministic, with exact deadlock detection — and the evaluation
//     engine replays recorded communication scripts bit-identically to it
//     (the trace backend);
//   - a reproduction of the PACE layered performance-modelling toolset:
//     the capp C-subset static analyser (internal/capp), the CHIP3S-style
//     performance specification language (internal/psl), the HMCL hardware
//     model layer (internal/hwmodel) and the evaluation engine
//     (internal/pace);
//   - simulated hardware benchmarking (internal/bench) against ground-truth
//     platform descriptions (internal/platform);
//   - LogGP and Hoisie et al. baseline analytic models (internal/loggp,
//     internal/hoisie);
//   - experiment drivers regenerating every table and figure of the paper's
//     evaluation (internal/experiments, cmd/validate, cmd/speculate),
//     fanned out across configurations on a bounded worker pool.
//
// Model evaluation picks its path by array size: pace.PredictAuto runs
// full template evaluation (every virtual processor simulated on the
// event scheduler) through pace.TemplateMaxRanks = 8000 processors — the
// paper's largest speculative studies — and the analytic closed form
// beyond.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package pacesweep

// Version identifies the release of this reproduction.
const Version = "1.0.0"
