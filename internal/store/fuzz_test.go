package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
)

// Fuzz test for the frame decoder: whatever bytes arrive — truncated
// streams, flipped bits, implausible lengths, hostile varints — the
// reader must return an error or the faithful payload, never panic, and
// never allocate proportionally to an attacker-controlled length field.

// frameStream encodes payload into a well-formed frame stream.
func frameStream(payload []byte, blockSize int) []byte {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, blockSize)
	fw.Write(payload)
	fw.Close()
	return buf.Bytes()
}

// rawFrames hand-assembles a stream from explicit header fields and
// payload bytes, for shapes the writer would refuse to produce.
func rawFrames(frames ...[]byte) []byte {
	var buf bytes.Buffer
	buf.Write(frameMagic)
	for _, f := range frames {
		buf.Write(f)
	}
	return buf.Bytes()
}

// frame encodes one frame with the given declared length, checksum, and
// payload bytes — all independently forgeable.
func frame(rawLen uint64, crc uint32, raw []byte) []byte {
	b := binary.AppendUvarint(nil, rawLen)
	b = binary.LittleEndian.AppendUint32(b, crc)
	return append(b, raw...)
}

func FuzzFrameReader(f *testing.F) {
	// Frames are stored raw, so every payload byte is fuzz input: keep
	// the valid seed small (six frames) or minimization crawls.
	valid := frameStream(bytes.Repeat([]byte("trace event bytes "), 40), 128)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])        // truncated mid-frame
	f.Add(valid[:len(frameMagic)])     // magic only, no end marker
	f.Add(frameStream(nil, 0))         // empty payload: magic + end marker
	f.Add([]byte("ccdpfrm1"))          // the retired compressed format's magic
	f.Add([]byte("junk"))              // short junk
	f.Add([]byte{})                    // empty input
	f.Add(frameStream([]byte("x"), 1)) // many tiny frames

	// Bad checksum over an otherwise valid stream.
	badCRC := append([]byte(nil), valid...)
	badCRC[len(frameMagic)+2+4] ^= 0x01 // flip a bit inside the first frame's payload
	f.Add(badCRC)

	// Implausible declared length: must be rejected before allocation.
	f.Add(rawFrames(frame(1<<40, 0, []byte{1, 2, 3, 4})))
	// A plausible but forged length the input cannot back: the payload
	// buffer must grow with the bytes that arrive, not with the claim.
	f.Add(rawFrames(frame(60<<20, 0, []byte{1, 2, 3})))
	// The declared length overruns the payload.
	f.Add(rawFrames(frame(100, 0, []byte{1, 2})))
	// The declared length stops short of the payload: the checksum
	// covers the declared bytes, and the rest desynchronizes the next
	// frame header.
	f.Add(rawFrames(frame(2, crc32.ChecksumIEEE([]byte("ei")), []byte("eightchr"))))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := NewFrameReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Drain via a small buffer so the partial-frame copy path runs too.
		var n int64
		buf := make([]byte, 773)
		for {
			m, err := fr.Read(buf)
			n += int64(m)
			if err != nil {
				break
			}
			if n > 1<<28 {
				t.Fatalf("decoder produced %d bytes from %d input bytes", n, len(data))
			}
		}
	})
}

// TestFuzzSeedsBehave pins the non-panicking contract on the handcrafted
// seeds without needing the fuzz engine: each either fails loudly or
// round-trips exactly.
func TestFuzzSeedsBehave(t *testing.T) {
	payload := bytes.Repeat([]byte("abc"), 5000)
	valid := frameStream(payload, 4<<10)

	fr, err := NewFrameReader(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(fr); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("valid seed failed: %v", err)
	}

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"oversized rawLen", rawFrames(frame(1<<40, 0, []byte{1, 2, 3, 4}))},
		{"forged rawLen", rawFrames(frame(60<<20, 0, []byte{1, 2, 3}))},
		{"short payload", rawFrames(frame(100, 0, []byte{1, 2}))},
		{"overlong payload", rawFrames(frame(2, crc32.ChecksumIEEE([]byte("ei")), []byte("eightchr")))},
		{"truncated", valid[:len(valid)-3]},
	} {
		fr, err := NewFrameReader(bytes.NewReader(tc.data))
		if err != nil {
			continue
		}
		if _, err := io.ReadAll(fr); err == nil {
			t.Errorf("%s: decoded cleanly", tc.name)
		}
	}
}

// TestForgedFrameLengthAllocatesBounded feeds a 19-byte stream whose one
// frame declares 60 MiB: decoding must fail as a truncation while
// allocating far less than the declared length.
func TestForgedFrameLengthAllocatesBounded(t *testing.T) {
	data := rawFrames(frame(60<<20, 0, []byte{1, 2, 3}))
	if len(data) != 19 {
		t.Fatalf("forged stream is %d bytes, want 19", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fr, err := NewFrameReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var buf [512]byte
	for err == nil {
		_, err = fr.Read(buf[:])
	}
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("forged frame: got %v, want unexpected EOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("forged 60 MiB frame allocated %d bytes decoding 19 input bytes", alloc)
	}
}
