// Offline example: the paper's toolchain is a set of separate tools wired
// by files — the instrumented run produces a trace, the profiler produces
// the Name/TRG profiles, the optimizer produces a placement map, and the
// linker and custom malloc consume it on later runs. This example plays
// the whole relay through files in a temporary directory:
//
//	record trace -> profile from trace -> place -> save artifacts ->
//	reload artifacts -> evaluate the trace under the loaded placement
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/ccdp"
	"repro/internal/persist"
	"repro/internal/sim"
)

func main() {
	w, err := ccdp.Workload("compress")
	if err != nil {
		log.Fatal(err)
	}
	opts := ccdp.DefaultOptions()
	dir, err := os.MkdirTemp("", "ccdp-offline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. "Instrument" the program once: record its trace.
	tracePath := filepath.Join(dir, "compress.trace")
	tf, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.RecordTrace(w, w.Train(), tf, opts); err != nil {
		log.Fatal(err)
	}
	tf.Close()
	info, _ := os.Stat(tracePath)
	fmt.Printf("recorded %s (%d KB)\n", tracePath, info.Size()/1024)

	// 2. Profile and place from the trace alone.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := sim.ProfileFromTrace(bytes.NewReader(raw), opts)
	if err != nil {
		log.Fatal(err)
	}
	pm, err := ccdp.Place(w, pr, opts)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Save the toolchain artifacts.
	profPath := filepath.Join(dir, "compress.profile")
	mapPath := filepath.Join(dir, "compress.placement")
	pf, err := os.Create(profPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := persist.WriteProfile(pf, pr.Profile); err != nil {
		log.Fatal(err)
	}
	pf.Close()
	mf, err := os.Create(mapPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := persist.WritePlacement(mf, pm); err != nil {
		log.Fatal(err)
	}
	mf.Close()
	fmt.Printf("saved %s and %s\n", profPath, mapPath)

	// 4. A "later process": reload everything and evaluate.
	pf2, err := os.Open(profPath)
	if err != nil {
		log.Fatal(err)
	}
	loadedProf, err := persist.ReadProfile(pf2)
	pf2.Close()
	if err != nil {
		log.Fatal(err)
	}
	mf2, err := os.Open(mapPath)
	if err != nil {
		log.Fatal(err)
	}
	loadedMap, err := persist.ReadPlacement(mf2)
	mf2.Close()
	if err != nil {
		log.Fatal(err)
	}

	// One replay of the trace feeds both layouts.
	src, err := sim.OpenReplay(bytes.NewReader(raw), opts)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(src, sim.Pass{
		HeapPlace: w.HeapPlacement(),
		Profile:   &sim.ProfileResult{Profile: loadedProf},
		Placement: loadedMap,
		Groups:    []sim.GroupSpec{{Layout: sim.LayoutNatural}, {Layout: sim.LayoutCCDP}},
	}, opts)
	if err != nil {
		log.Fatal(err)
	}
	nat, opt := res[0][0].Eval, res[1][0].Eval
	fmt.Printf("\nreplayed the recorded trace under both placements:\n")
	fmt.Printf("  natural: %5.2f%% miss rate\n", nat.MissRate())
	fmt.Printf("  CCDP:    %5.2f%% miss rate (from the reloaded placement map)\n", opt.MissRate())
}
