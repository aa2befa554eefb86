package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// The framing layer turns an artifact's byte stream into a sequence of
// checksummed blocks:
//
//	magic "ccdpfrm2"
//	frame*: uvarint rawLen | crc32(raw) LE | rawLen raw bytes
//	end:    uvarint 0
//
// Frames are stored uncompressed: replaying a stored trace has to beat
// re-running the model that produced it, and inflate alone cost more per
// event than the model does (DESIGN.md, "Trace store"). A reader decodes
// strictly sequentially — the access pattern trace replay wants — and any
// corruption is caught at the frame where it happens: a bad length, a
// short read, or a checksum mismatch each surface as an error, never as a
// panic or as silently wrong bytes downstream.

// frameMagic names the format version. Any change to the format must
// change it: KeyOf hashes it in, which retires every older entry.
var frameMagic = []byte("ccdpfrm2")

const (
	// DefaultBlockSize is the frame payload target: big enough that the
	// per-frame header and checksum call amortize, small enough that a
	// corrupt frame loses little and decode buffers stay modest.
	DefaultBlockSize = 256 << 10
	// maxFrameLen bounds the frame length decoded from the wire;
	// anything larger cannot come from a FrameWriter.
	maxFrameLen = 1 << 26
)

// FrameWriter cuts a byte stream into frames. Errors are sticky and
// surfaced by every subsequent call; Close writes the end marker.
type FrameWriter struct {
	w      io.Writer
	block  int
	buf    []byte
	hdr    []byte
	n      int64
	err    error
	closed bool
}

// NewFrameWriter writes the stream magic and returns a writer that cuts
// frames of blockSize bytes (<= 0 selects DefaultBlockSize).
func NewFrameWriter(w io.Writer, blockSize int) *FrameWriter {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	fw := &FrameWriter{w: w, block: blockSize}
	fw.write(frameMagic)
	return fw
}

func (fw *FrameWriter) write(p []byte) {
	if fw.err != nil {
		return
	}
	n, err := fw.w.Write(p)
	fw.n += int64(n)
	fw.err = err
}

// Write implements io.Writer, cutting a frame each time a full block
// accumulates.
func (fw *FrameWriter) Write(p []byte) (int, error) {
	if fw.closed {
		return 0, errors.New("store: write on closed FrameWriter")
	}
	if fw.err != nil {
		return 0, fw.err
	}
	total := len(p)
	for len(p) > 0 && fw.err == nil {
		if len(fw.buf) == 0 && len(p) >= fw.block {
			fw.flushFrame(p[:fw.block])
			p = p[fw.block:]
			continue
		}
		n := fw.block - len(fw.buf)
		if n > len(p) {
			n = len(p)
		}
		fw.buf = append(fw.buf, p[:n]...)
		p = p[n:]
		if len(fw.buf) == fw.block {
			fw.flushFrame(fw.buf)
			fw.buf = fw.buf[:0]
		}
	}
	if fw.err != nil {
		return 0, fw.err
	}
	return total, nil
}

func (fw *FrameWriter) flushFrame(raw []byte) {
	if fw.err != nil || len(raw) == 0 {
		return
	}
	fw.hdr = binary.AppendUvarint(fw.hdr[:0], uint64(len(raw)))
	fw.hdr = binary.LittleEndian.AppendUint32(fw.hdr, crc32.ChecksumIEEE(raw))
	fw.write(fw.hdr)
	fw.write(raw)
}

// Close flushes the final partial frame and writes the end marker. It is
// idempotent and returns the first error the writer hit.
func (fw *FrameWriter) Close() error {
	if fw.closed {
		return fw.err
	}
	fw.closed = true
	fw.flushFrame(fw.buf)
	fw.buf = nil
	fw.write([]byte{0})
	return fw.err
}

// BytesWritten returns the on-the-wire byte count so far, including
// magic and frame headers.
func (fw *FrameWriter) BytesWritten() int64 { return fw.n }

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a frame
// stream, running out of bytes before the end marker is truncation, not a
// clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// FrameReader decodes a frame stream strictly sequentially. Any
// malformed input — truncation, implausible lengths, checksum
// mismatches — returns an error; FrameReader never panics.
type FrameReader struct {
	br    *bufio.Reader
	frame []byte
	pos   int
	done  bool
	err   error
}

// NewFrameReader validates the stream magic and returns the reader.
func NewFrameReader(r io.Reader) (*FrameReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	magic := make([]byte, len(frameMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: reading frame magic: %w", noEOF(err))
	}
	if !bytes.Equal(magic, frameMagic) {
		return nil, fmt.Errorf("store: bad frame magic %q", magic)
	}
	return &FrameReader{br: br}, nil
}

// Read implements io.Reader over the verified payload stream.
func (fr *FrameReader) Read(p []byte) (int, error) {
	if fr.err != nil {
		return 0, fr.err
	}
	for fr.pos == len(fr.frame) {
		if fr.done {
			return 0, io.EOF
		}
		if err := fr.next(); err != nil {
			fr.err = err
			return 0, err
		}
	}
	n := copy(p, fr.frame[fr.pos:])
	fr.pos += n
	return n, nil
}

// next reads and verifies one frame (or the end marker).
func (fr *FrameReader) next() error {
	rawLen, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return fmt.Errorf("store: reading frame length: %w", noEOF(err))
	}
	fr.frame, fr.pos = fr.frame[:0], 0
	if rawLen == 0 {
		fr.done = true
		return nil
	}
	if rawLen > maxFrameLen {
		return fmt.Errorf("store: implausible frame length %d", rawLen)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(fr.br, crcb[:]); err != nil {
		return fmt.Errorf("store: reading frame checksum: %w", noEOF(err))
	}
	// Grow the payload buffer only as bytes arrive, at most a block at a
	// time: a forged length must not buy an allocation its input cannot
	// back.
	for n := int(rawLen); len(fr.frame) < n; {
		chunk := min(n-len(fr.frame), DefaultBlockSize)
		fr.frame = slices.Grow(fr.frame, chunk)
		m, err := io.ReadFull(fr.br, fr.frame[len(fr.frame):len(fr.frame)+chunk])
		fr.frame = fr.frame[:len(fr.frame)+m]
		if err != nil {
			return fmt.Errorf("store: reading frame payload: %w", noEOF(err))
		}
	}
	if got, want := crc32.ChecksumIEEE(fr.frame), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return fmt.Errorf("store: frame checksum mismatch (got %#x, want %#x)", got, want)
	}
	return nil
}
