package ccdp

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// Program is the interface a workload model implements: a deterministic
// generator of the data-reference behaviour CCDP profiles and optimises.
// The nine built-in models (see Workloads) implement it; custom programs
// can too — see examples/conflict.
type Program = workload.Workload

// Building blocks for custom programs.
type (
	// Spec declares a program's static shape (stack size, globals,
	// constants). It must not vary with the input.
	Spec = workload.Spec
	// Var declares one named static object.
	Var = workload.Var
	// Prog is the handle a Program drives during Run.
	Prog = workload.Prog
	// Activity is one weighted burst generator for Prog.RunMix.
	Activity = workload.Activity
	// HeapKind parameterises a family of heap allocations.
	HeapKind = workload.HeapKind
)

// Profile runs the profiling pass (Name profile + TRG) for w on input in.
func Profile(w Program, in Input, opts Options) (*ProfileResult, error) {
	return sim.ProfilePass(w, in, opts)
}

// Place computes the CCDP placement from a profile, honouring the
// program's heap-placement setting as the paper did per program.
func Place(w Program, pr *ProfileResult, opts Options) (*PlacementMap, error) {
	return sim.Place(w, pr, opts)
}

// Evaluate replays w's input under the given layout through the cache
// simulator. For LayoutCCDP, pr and pm must come from Profile and Place;
// they are ignored otherwise.
func Evaluate(w Program, in Input, kind LayoutKind, pr *ProfileResult, pm *PlacementMap, opts Options) (*EvalResult, error) {
	return sim.EvalFrom(sim.Live(w, in, opts), w.Name(), w.HeapPlacement(), in, kind, pr, pm, opts, 0)
}
