package persist

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Fuzz targets harden the file parsers: whatever bytes arrive, the readers
// must return an error or a valid structure — never panic or hang. The
// seeds run as ordinary unit tests under `go test`; `go test -fuzz` digs
// deeper.

// seedArtifacts builds a small real profile and placement without a
// *testing.T, for fuzz-corpus seeding.
func seedArtifacts() (*profile.Profile, *placement.Map, error) {
	tbl := object.NewTable(512)
	p, err := profile.New(profile.DefaultConfig(8192), tbl)
	if err != nil {
		return nil, nil, err
	}
	em := trace.NewEmitter(tbl, trace.NewEnricher(tbl, p))
	a := tbl.AddGlobal("a", 128)
	b := tbl.AddGlobal("b", 256)
	for i := 0; i < 200; i++ {
		em.Load(a, int64(i%16)*8, 8)
		em.Load(b, int64(i%32)*8, 8)
	}
	h := em.Malloc("h", 64, 0xF00D)
	em.Load(h, 0, 8)
	prof := p.Finish()
	pm, err := placement.Compute(placement.Config{Cache: cache.DefaultConfig, HeapPlacement: true}, prof)
	if err != nil {
		return nil, nil, err
	}
	return prof, pm, nil
}

func FuzzReadProfile(f *testing.F) {
	prof, _, err := seedArtifacts()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, prof); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(profileMagic + "\n"))
	f.Add([]byte(profileMagic + "\nconfig 256 16384 0.99\ntotalrefs 0\nnodes 1\n"))
	f.Add([]byte("junk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProfile(bytes.NewReader(data))
		if err == nil && p.Graph == nil {
			t.Fatal("nil graph without error")
		}
	})
}

func FuzzReadPlacement(f *testing.F) {
	_, pm, err := seedArtifacts()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlacement(&buf, pm); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)*3/4])
	f.Add([]byte(placementMagic + "\ncache 8192 32 1\n"))
	f.Add([]byte(strings.Repeat("slot 0 0 0\n", 10)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadPlacement(bytes.NewReader(data))
		if err == nil {
			if m.Cache.Validate() != nil {
				t.Fatal("invalid cache config without error")
			}
		}
	})
}
