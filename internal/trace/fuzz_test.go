package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/object"
)

// Fuzz and corrupt-input tests for the trace file parser: whatever bytes
// arrive, NewReader and Replay must return an error or a faithful replay —
// never panic, even though Replay drives a real Emitter over a real object
// table (both of which panic on contract violations a *live* caller could
// only commit through a bug, but a *file* can commit through corruption).

// seedTrace records a small real trace without a *testing.T, covering
// every event tag: constants, globals, stack traffic, heap alloc/free.
func seedTrace() ([]byte, error) {
	tbl := object.NewTable(256)
	hdr := FileHeader{
		StackSize: 256,
		Globals:   []Decl{{Name: "g", Size: 64, Addr: 0x1000}},
		Constants: []Decl{{Name: "c", Size: 32, Addr: 0x2000}},
	}
	// Mirror Reader's reconstruction order (constants, then globals) so
	// heap IDs drift-check cleanly on replay.
	cid := tbl.AddConstant("c", 32, 0x2000)
	gid := tbl.AddGlobal("g", 64)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, hdr, tbl)
	if err != nil {
		return nil, err
	}
	em := NewEmitter(tbl, tw)
	em.Load(gid, 0, 8)
	em.Store(gid, 32, 16)
	em.Load(cid, 4, 4)
	em.Load(object.StackID, 128, 8)
	h := em.Malloc("h", 128, 0xBEEF)
	em.Store(h, 0, 16)
	em.Free(h)
	em.Flush()
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// rawTrace hand-assembles a trace file from a header and raw event bytes,
// for crafting streams the Writer would refuse to produce.
func rawTrace(stackSize uint64, events ...byte) []byte {
	var buf bytes.Buffer
	buf.Write(traceMagic)
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	uv(stackSize)
	uv(0) // no globals
	uv(0) // no constants
	buf.Write(events)
	return buf.Bytes()
}

// ev appends one hand-encoded event.
func ev(dst []byte, tag byte, fields ...uint64) []byte {
	dst = append(dst, tag)
	var tmp [binary.MaxVarintLen64]byte
	for _, f := range fields {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], f)]...)
	}
	return dst
}

func FuzzTraceReader(f *testing.F) {
	valid, err := seedTrace()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(traceMagic)+1])
	f.Add([]byte("ccdptrace2"))
	f.Add([]byte("junk"))
	f.Add([]byte{})
	// Oversized varint counts in the header.
	f.Add(rawTrace(1 << 40))
	var huge bytes.Buffer
	huge.Write(traceMagic)
	var tmp [binary.MaxVarintLen64]byte
	huge.Write(tmp[:binary.PutUvarint(tmp[:], 256)])
	huge.Write(tmp[:binary.PutUvarint(tmp[:], 1<<30)]) // decl count
	f.Add(huge.Bytes())
	// Bogus events over an empty header: undeclared object, implausible
	// offset, zero-size alloc, free of the stack, unknown tag.
	f.Add(rawTrace(64, ev(nil, tagLoad, 99, 0, 8)...))
	f.Add(rawTrace(64, ev(nil, tagStore, 0, 1<<50, 8)...))
	f.Add(rawTrace(64, ev(nil, tagAlloc, 1, 0, 0xBEEF)...))
	f.Add(rawTrace(64, ev(nil, tagFree, 0)...))
	f.Add(rawTrace(64, 0x7E))
	// Edges of the buffered access decoder: an access event cut off at the
	// end of the stream, and an over-long varint well inside the window.
	f.Add(rawTrace(64, ev(nil, tagLoad, 0, 8)...))
	f.Add(rawTrace(64, append(overlongAccess(), ev(nil, tagLoad, 0, 0, 8)...)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		c := NewCounter(tr.Objects())
		_ = tr.Replay(c) // must never panic, whatever the verdict
	})
}

// overlongAccess encodes a load whose object varint runs past ten bytes.
func overlongAccess() []byte {
	b := append([]byte{tagLoad}, bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)...)
	return append(b, 0x01, 0, 8)
}

// TestReplayRoundTrip pins the happy path the fuzz target only brushes:
// a recorded stream replays to the same counts the live run produced.
func TestReplayRoundTrip(t *testing.T) {
	data, err := seedTrace()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Header(); got.StackSize != 256 || len(got.Globals) != 1 || len(got.Constants) != 1 {
		t.Fatalf("header mismatch: %+v", got)
	}
	c := NewCounter(tr.Objects())
	if err := tr.Replay(c); err != nil {
		t.Fatal(err)
	}
	if c.Loads != 3 || c.Stores != 2 || c.Allocs != 1 || c.Frees != 1 {
		t.Fatalf("replayed counts loads=%d stores=%d allocs=%d frees=%d", c.Loads, c.Stores, c.Allocs, c.Frees)
	}
	// The replayed table must have rebuilt the heap object's lifetime.
	in := tr.Objects().Get(object.ID(tr.Objects().Len() - 1))
	if in.Category != object.Heap || in.DeathRef == 0 {
		t.Fatalf("heap object not reconstructed: %+v", in)
	}
}

// TestReplayAcrossWindowRefills replays one stream through decode buffers
// from one longest access event upward, and one byte per read, so access
// events land across every window boundary: counts must not change, and
// the stream cut inside its last access event must fail the same way at
// every buffer size.
func TestReplayAcrossWindowRefills(t *testing.T) {
	var evs []byte
	for i := uint64(0); i < 400; i++ {
		tag := byte(tagLoad)
		if i%3 == 0 {
			tag = tagStore
		}
		off := (i * i * 7919) % (1 << 36) // 1- to 6-byte varints
		evs = ev(evs, tag, 0, off, 1+i%64)
	}
	whole := rawTrace(1<<40, append(evs, tagEnd)...)
	cut := rawTrace(1<<40, evs[:len(evs)-2]...)
	sizes := []int{1, maxAccessLen, maxAccessLen + 1, 47, 64, 0}
	for _, size := range sizes {
		for _, oneByte := range []bool{false, true} {
			open := func(data []byte) *Reader {
				var r io.Reader = bytes.NewReader(data)
				if oneByte {
					r = iotest.OneByteReader(r)
				}
				tr, err := NewReaderSize(r, size)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			tr := open(whole)
			c := NewCounter(tr.Objects())
			if err := tr.Replay(c); err != nil {
				t.Fatalf("size %d one-byte %v: %v", size, oneByte, err)
			}
			if c.Loads != 266 || c.Stores != 134 {
				t.Fatalf("size %d one-byte %v: loads=%d stores=%d, want 266/134", size, oneByte, c.Loads, c.Stores)
			}
			tr = open(cut)
			err := tr.Replay(NewCounter(tr.Objects()))
			if err == nil || err.Error() != "trace: truncated access event" {
				t.Fatalf("size %d one-byte %v: cut stream failed with %v", size, oneByte, err)
			}
		}
	}
}

// errOnceReader returns its data, then err once, then io.EOF: a source
// that does not repeat its read error.
type errOnceReader struct {
	data []byte
	err  error
}

func (r *errOnceReader) Read(p []byte) (int, error) {
	if len(r.data) > 0 {
		n := copy(p, r.data)
		r.data = r.data[n:]
		return n, nil
	}
	if err := r.err; err != nil {
		r.err = nil
		return 0, err
	}
	return 0, io.EOF
}

// TestReplayReportsOneShotReadError: a read error that the source reports
// once, as the decoder refills its window, must still be the error Replay
// returns.
func TestReplayReportsOneShotReadError(t *testing.T) {
	boom := errors.New("boom")
	data := rawTrace(64, ev(ev(nil, tagLoad, 0, 0, 8), tagStore, 0, 8, 8)...)
	tr, err := NewReader(&errOnceReader{data: data, err: boom})
	if err != nil {
		t.Fatal(err)
	}
	err = tr.Replay(NewCounter(tr.Objects()))
	if !errors.Is(err, boom) {
		t.Fatalf("Replay returned %v, want the source's read error", err)
	}
}

// TestReaderRejectsCorruptHeaders enumerates the header error paths.
func TestReaderRejectsCorruptHeaders(t *testing.T) {
	valid, err := seedTrace()
	if err != nil {
		t.Fatal(err)
	}
	var tmp [binary.MaxVarintLen64]byte
	oversizedDecls := append(append([]byte{}, traceMagic...), tmp[:binary.PutUvarint(tmp[:], 256)]...)
	oversizedDecls = append(oversizedDecls, tmp[:binary.PutUvarint(tmp[:], 1<<30)]...)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "magic"},
		{"truncated magic", valid[:4], "magic"},
		{"bad magic", []byte("ccdptraceX........"), "bad magic"},
		{"truncated header", valid[:len(traceMagic)+1], ""},
		{"oversized decl count", oversizedDecls, "implausible declaration count"},
	}
	for _, c := range cases {
		_, err := NewReader(bytes.NewReader(c.data))
		if err == nil {
			t.Errorf("%s: NewReader accepted corrupt input", c.name)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestReplayRejectsCorruptEvents enumerates the event-stream error paths —
// each one a former panic site in the emitter or object table.
func TestReplayRejectsCorruptEvents(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"undeclared object", rawTrace(64, ev(nil, tagLoad, 99, 0, 8)...), "undeclared object"},
		{"implausible offset", rawTrace(64, ev(nil, tagStore, 0, 1<<50, 8)...), "implausible access"},
		{"out of bounds", rawTrace(64, append(ev(nil, tagLoad, 0, 60, 8), tagEnd)...), "outside object"},
		{"zero alloc", rawTrace(64, ev(nil, tagAlloc, 1, 0, 0xBEEF)...), "implausible alloc size"},
		{"implausible alloc", rawTrace(64, ev(nil, tagAlloc, 1, 1<<50, 0xBEEF)...), "implausible alloc size"},
		{"free non-heap", rawTrace(64, ev(nil, tagFree, 0)...), "non-heap"},
		{"unknown tag", rawTrace(64, 0x7E), "unknown event tag"},
		{"missing end", rawTrace(64), "event tag"},
		{"truncated access", rawTrace(64, tagLoad), "truncated access"},
		{"access cut at end of stream", rawTrace(64, ev(nil, tagLoad, 0, 8)...), "truncated access"},
		{"overlong varint", rawTrace(64, append(overlongAccess(), ev(nil, tagLoad, 0, 0, 8)...)...), "truncated access"},
		{"alloc id drift", rawTrace(64, append(append(ev(nil, tagAlloc, 7, 16, 0xBEEF), byte(1), 'h'), tagEnd)...), "id drift"},
	}
	// Double free needs a well-formed alloc first: alloc id 1, touch it (so
	// the first free stamps a nonzero death time — a free at reference
	// count 0 is benignly idempotent), then free it twice.
	df := ev(nil, tagAlloc, 1, 16, 0xBEEF)
	df = append(df, byte(1), 'h') // name "h"
	df = ev(df, tagLoad, 1, 0, 8)
	df = ev(df, tagFree, 1)
	df = ev(df, tagFree, 1)
	df = append(df, tagEnd)
	cases = append(cases, struct {
		name string
		data []byte
		want string
	}{"double free", rawTrace(64, df...), "double free"})

	for _, c := range cases {
		tr, err := NewReader(bytes.NewReader(c.data))
		if err != nil {
			t.Errorf("%s: header unexpectedly rejected: %v", c.name, err)
			continue
		}
		err = tr.Replay(NewCounter(tr.Objects()))
		if err == nil {
			t.Errorf("%s: Replay accepted corrupt stream", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestStackAccessStaysValid guards the only object NewReader synthesizes
// rather than reads: replayed stack traffic must bound-check against the
// recorded stack size.
func TestStackAccessStaysValid(t *testing.T) {
	ok := rawTrace(64, append(ev(nil, tagLoad, 0, 32, 8), tagEnd)...)
	tr, err := NewReader(bytes.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Replay(NewCounter(tr.Objects())); err != nil {
		t.Fatalf("in-bounds stack load rejected: %v", err)
	}
	bad := rawTrace(64, append(ev(nil, tagLoad, 0, 60, 8), tagEnd)...)
	tr, err = NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Replay(NewCounter(tr.Objects())); err == nil {
		t.Fatal("out-of-bounds stack load accepted")
	}
}
