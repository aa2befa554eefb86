package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// expected is the frozen output of every workload: what the simulator
// says, independent of how fast it says it. A run that disagrees with it
// on any count fails. Regenerate with -freeze only when a change is meant
// to alter simulated results.
type expected struct {
	// Suite holds per-program, per-input, per-layout pass counts of the
	// suite at SuiteScale.
	SuiteScale float64                                     `json:"suiteScale,omitempty"`
	Suite      map[string]map[string]map[string]passCounts `json:"suite,omitempty"`
	// Sweep holds per-cell counts of the sweep grid at SweepScale.
	SweepScale float64               `json:"sweepScale,omitempty"`
	Sweep      map[string]passCounts `json:"sweep,omitempty"`
	// Service holds the SHA-256 of each (kind/program) job's served
	// result bytes at ServiceScale.
	ServiceScale float64           `json:"serviceScale,omitempty"`
	Service      map[string]string `json:"service,omitempty"`
}

// passCounts is one evaluation's exact outcome.
type passCounts struct {
	Events   uint64 `json:"events"`
	Accesses uint64 `json:"accesses"`
	Misses   uint64 `json:"misses"`
}

func loadExpected(path string) (*expected, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("expected results: %w", err)
	}
	var e expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expected results %s: %w", path, err)
	}
	return &e, nil
}

func (e *expected) save(path string) error {
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// scaleMatches reports whether a section frozen at frozen applies to a
// run at scale.
func scaleMatches(frozen, scale float64) error {
	if frozen != scale {
		return fmt.Errorf("expected results were frozen at scale %g, this run uses %g", frozen, scale)
	}
	return nil
}
