package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/hierarchy"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/workload"
)

const testScale = 0.02

// countingWorkload counts its model's runs per "program/input" label.
type countingWorkload struct {
	workload.Workload
	runs map[string]int
}

func (c countingWorkload) Run(in workload.Input, p *workload.Prog) {
	c.runs[c.Name()+"/"+in.Label]++
	c.Workload.Run(in, p)
}

// oracle holds one program's profile and placement, built as the tables
// build them, for independent passes of one layout and one member.
type oracle struct {
	w    workload.Workload
	test workload.Input
	pr   *sim.ProfileResult
	pm   *placement.Map
}

func newOracle(t *testing.T, w workload.Workload) *oracle {
	t.Helper()
	opts := sim.DefaultOptions()
	pr, err := sim.ProfilePass(w, w.Train().Scaled(testScale), opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sim.Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &oracle{w: w, test: w.Test().Scaled(testScale), pr: pr, pm: pm}
}

// eval is an independent pass of one layout on one single-level cache.
func (o *oracle) eval(t *testing.T, kind sim.LayoutKind, cc cache.Config) []byte {
	t.Helper()
	opts := sim.DefaultOptions()
	opts.Cache = cc
	res, err := sim.EvalFrom(sim.Live(o.w, o.test, opts), o.w.Name(), o.w.HeapPlacement(), o.test, kind, o.pr, o.pm, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sim.EncodeEvalResult(res)
}

// hier is an independent pass of one layout through one hierarchy.
func (o *oracle) hier(t *testing.T, kind sim.LayoutKind, hcfg hierarchy.Config) []byte {
	t.Helper()
	opts := sim.DefaultOptions()
	res, err := sim.Run(sim.Live(o.w, o.test, opts), sim.Pass{
		Workload: o.w.Name(), Input: o.test, HeapPlace: o.w.HeapPlacement(), Profile: o.pr, Placement: o.pm,
		Groups: []sim.GroupSpec{{Layout: kind, Members: []sim.Member{{Hier: &hcfg}}}},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sim.EncodeHierarchyResult(res[0][0].Hier)
}

func same(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from an independent pass:\n--- table ---\n%s--- oracle ---\n%s", what, got, want)
	}
}

// TestOnePassTablesMatchIndependentPasses holds each table that runs
// several layouts and members in one pass per program to independent
// passes of one layout and one member each, and pins the work: each
// table runs every program's test model once (and its train model once,
// to profile).
func TestOnePassTablesMatchIndependentPasses(t *testing.T) {
	var ws []workload.Workload
	var oracles []*oracle
	runs := map[string]int{}
	for _, name := range []string{"espresso", "compress"} {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, countingWorkload{Workload: w, runs: runs})
		oracles = append(oracles, newOracle(t, w))
	}
	layouts := [2]sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP}
	victim, prefetch := sim.DefaultOptions().Cache, sim.DefaultOptions().Cache
	victim.VictimEntries, prefetch.Prefetch = 4, true

	tables := []struct {
		name string
		run  func(t *testing.T) // runs the table, then its oracles
	}{
		{"sweep", func(t *testing.T) {
			rows, err := sweepRows(ws, testScale)
			if err != nil {
				t.Fatal(err)
			}
			countRuns(t, runs, ws)
			for i, o := range oracles {
				for j, cc := range sweepTargets {
					for l, kind := range layouts {
						same(t, fmt.Sprintf("%s %s %s", o.w.Name(), cc.Short(), kind), sim.EncodeEvalResult(rows[i][j][l]), o.eval(t, kind, cc))
					}
				}
			}
		}},
		{"victim", func(t *testing.T) { checkQuads(t, ws, runs, oracles, victim) }},
		{"prefetch", func(t *testing.T) { checkQuads(t, ws, runs, oracles, prefetch) }},
		{"hierarchy", func(t *testing.T) {
			rows, _, err := hierarchyRows(ws, testScale)
			if err != nil {
				t.Fatal(err)
			}
			countRuns(t, runs, ws)
			for _, o := range oracles {
				for l, kind := range layouts {
					same(t, fmt.Sprintf("%s %s", o.w.Name(), kind), sim.EncodeHierarchyResult(rows[o.w.Name()][l]), o.hier(t, kind, hierarchy.DefaultConfig()))
				}
			}
		}},
	}
	for _, tb := range tables {
		clear(runs)
		t.Run(tb.name, tb.run)
	}
}

// countRuns checks that a table ran each program's train and test model
// once: one profiling pass and one evaluation pass.
func countRuns(t *testing.T, runs map[string]int, ws []workload.Workload) {
	t.Helper()
	for _, w := range ws {
		for _, label := range []string{w.Train().Label, w.Test().Label} {
			if got := runs[w.Name()+"/"+label]; got != 1 {
				t.Errorf("%s/%s model ran %d times, want 1", w.Name(), label, got)
			}
		}
	}
}

// checkQuads holds a victim or prefetch table's rows to independent
// passes on the default cache and on variant.
func checkQuads(t *testing.T, ws []workload.Workload, runs map[string]int, oracles []*oracle, variant cache.Config) {
	rows, _, err := quads(ws, testScale, variant)
	if err != nil {
		t.Fatal(err)
	}
	countRuns(t, runs, ws)
	base := sim.DefaultOptions().Cache
	for _, o := range oracles {
		q := rows[o.w.Name()]
		for l, kind := range []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP} {
			same(t, fmt.Sprintf("%s %s", o.w.Name(), kind), sim.EncodeEvalResult(q[2*l]), o.eval(t, kind, base))
			same(t, fmt.Sprintf("%s %s+variant", o.w.Name(), kind), sim.EncodeEvalResult(q[2*l+1]), o.eval(t, kind, variant))
		}
	}
}
