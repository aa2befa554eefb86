package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/addrspace"
	"repro/internal/metrics"
	"repro/internal/object"
)

// Trace files are the ATOM analog: a profiled run captured once and
// replayed many times (into the profiler, into cache simulations under
// different placements) without re-running the program model. The format
// is a compact varint-encoded binary stream: a header describing the
// static objects, then the event stream.

var traceMagic = []byte("ccdptrace1")

// Decl describes one static object in a trace header.
type Decl struct {
	Name string
	Size int64
	Addr addrspace.Addr // natural address (constants: fixed text address)
}

// FileHeader carries the static shape of the traced program.
type FileHeader struct {
	StackSize int64
	Globals   []Decl
	Constants []Decl
}

// event tags on the wire.
const (
	tagLoad  = 1
	tagStore = 2
	tagAlloc = 3
	tagFree  = 4
	tagEnd   = 0xFF
)

// Writer records an event stream to an io.Writer. It implements Handler,
// so it can be tee'd alongside any other consumer. Errors are sticky and
// surfaced by Flush.
type Writer struct {
	bw   *bufio.Writer
	objs *object.Table // for alloc metadata
	err  error
	buf  [maxAccessLen]byte
}

// NewWriter writes the header and returns a recording handler. objs must
// be the same table the emitter populates (alloc records need XOR names
// and labels).
func NewWriter(w io.Writer, hdr FileHeader, objs *object.Table) (*Writer, error) {
	tw := &Writer{bw: bufio.NewWriter(w), objs: objs}
	if _, err := tw.bw.Write(traceMagic); err != nil {
		return nil, err
	}
	tw.uvarint(uint64(hdr.StackSize))
	tw.decls(hdr.Globals)
	tw.decls(hdr.Constants)
	if tw.err != nil {
		return nil, tw.err
	}
	return tw, nil
}

func (tw *Writer) decls(ds []Decl) {
	tw.uvarint(uint64(len(ds)))
	for _, d := range ds {
		tw.str(d.Name)
		tw.uvarint(uint64(d.Size))
		tw.uvarint(uint64(d.Addr))
	}
}

func (tw *Writer) uvarint(v uint64) {
	if tw.err != nil {
		return
	}
	n := binary.PutUvarint(tw.buf[:], v)
	_, tw.err = tw.bw.Write(tw.buf[:n])
}

func (tw *Writer) byte(b byte) {
	if tw.err != nil {
		return
	}
	tw.err = tw.bw.WriteByte(b)
}

func (tw *Writer) str(s string) {
	tw.uvarint(uint64(len(s)))
	if tw.err != nil {
		return
	}
	_, tw.err = tw.bw.WriteString(s)
}

// HandleEvent implements Handler.
func (tw *Writer) HandleEvent(ev Event) {
	switch ev.Kind {
	case Load, Store:
		if tw.err == nil {
			_, tw.err = tw.bw.Write(appendAccess(tw.buf[:0], &ev))
		}
	case Alloc:
		in := tw.objs.Get(ev.Obj)
		tw.byte(tagAlloc)
		tw.uvarint(uint64(ev.Obj))
		tw.uvarint(uint64(ev.Size))
		tw.uvarint(in.XORName)
		tw.str(in.Name)
	case Free:
		tw.byte(tagFree)
		tw.uvarint(uint64(ev.Obj))
	}
}

// maxAccessLen is the longest encoding of one access event: a tag and
// three varints.
const maxAccessLen = 1 + 3*binary.MaxVarintLen64

// HandleBatch implements BatchHandler: it encodes a batch of loads and
// stores (the only kinds the emitter batches) straight into the buffered
// writer's free space, writing exactly the bytes HandleEvent would.
func (tw *Writer) HandleBatch(evs []Event) {
	if tw.err != nil {
		return
	}
	b := tw.bw.AvailableBuffer()
	for i := range evs {
		if cap(b)-len(b) < maxAccessLen {
			if _, tw.err = tw.bw.Write(b); tw.err == nil {
				tw.err = tw.bw.Flush()
			}
			if tw.err != nil {
				return
			}
			b = tw.bw.AvailableBuffer()
		}
		b = appendAccess(b, &evs[i])
	}
	_, tw.err = tw.bw.Write(b)
}

// appendAccess appends the wire encoding of a load or store: its tag and
// three varints, at most maxAccessLen bytes.
func appendAccess(b []byte, ev *Event) []byte {
	tag := byte(tagLoad)
	if ev.Kind == Store {
		tag = tagStore
	}
	b = append(b, tag)
	b = binary.AppendUvarint(b, uint64(ev.Obj))
	b = binary.AppendUvarint(b, uint64(ev.Off))
	return binary.AppendUvarint(b, uint64(ev.Size))
}

// Flush terminates and flushes the stream.
func (tw *Writer) Flush() error {
	tw.byte(tagEnd)
	if tw.err != nil {
		return tw.err
	}
	return tw.bw.Flush()
}

// Reader replays a recorded trace. Construction parses the header and
// materialises the object table; Replay then drives a handler through an
// Emitter, which re-validates every access and rebuilds reference counts
// and lifetimes exactly as the original run produced them.
type Reader struct {
	br      *bufio.Reader
	header  FileHeader
	objs    *object.Table
	metrics *metrics.Collector
	ids     struct {
		globals   []object.ID
		constants []object.ID
	}
}

// NewReader parses the header.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderSize(r, 0)
}

// NewReaderSize is NewReader with an explicit decode-buffer size in bytes
// (<= 0 selects bufio's default; the floor is one longest access event).
// Replay is I/O bound when the trace comes off a file; a deep buffer keeps
// the decoder fed between reads so the downstream profiler's shard workers
// never starve.
func NewReaderSize(r io.Reader, size int) (*Reader, error) {
	var br *bufio.Reader
	if size > 0 {
		br = bufio.NewReaderSize(&stickyReader{r: r}, max(size, maxAccessLen))
	} else {
		br = bufio.NewReader(&stickyReader{r: r})
	}
	tr := &Reader{br: br}
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(tr.br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != string(traceMagic) {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	stackSize, err := binary.ReadUvarint(tr.br)
	if err != nil {
		return nil, err
	}
	tr.header.StackSize = int64(stackSize)
	if tr.header.Globals, err = tr.readDecls(); err != nil {
		return nil, err
	}
	if tr.header.Constants, err = tr.readDecls(); err != nil {
		return nil, err
	}

	tr.objs = object.NewTable(tr.header.StackSize)
	for _, d := range tr.header.Constants {
		tr.ids.constants = append(tr.ids.constants, tr.objs.AddConstant(d.Name, d.Size, d.Addr))
	}
	for _, d := range tr.header.Globals {
		id := tr.objs.AddGlobal(d.Name, d.Size)
		tr.objs.Get(id).NaturalAddr = d.Addr
		tr.ids.globals = append(tr.ids.globals, id)
	}
	return tr, nil
}

func (tr *Reader) readDecls() ([]Decl, error) {
	n, err := binary.ReadUvarint(tr.br)
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("trace: implausible declaration count %d", n)
	}
	ds := make([]Decl, 0, n)
	for i := uint64(0); i < n; i++ {
		name, err := tr.readStr()
		if err != nil {
			return nil, err
		}
		size, err := binary.ReadUvarint(tr.br)
		if err != nil {
			return nil, err
		}
		addr, err := binary.ReadUvarint(tr.br)
		if err != nil {
			return nil, err
		}
		ds = append(ds, Decl{Name: name, Size: int64(size), Addr: addrspace.Addr(addr)})
	}
	return ds, nil
}

func (tr *Reader) readStr() (string, error) {
	n, err := binary.ReadUvarint(tr.br)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("trace: implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(tr.br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// stickyReader repeats the first error its source returns. bufio.Reader
// hands a read error back only once, and Replay's Peek may be the call
// that takes it; repeating it lets the next read report it, as a file
// would.
type stickyReader struct {
	r   io.Reader
	err error
}

func (s *stickyReader) Read(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.r.Read(p)
	s.err = err
	return n, err
}

// Header returns the parsed file header.
func (tr *Reader) Header() FileHeader { return tr.header }

// Objects returns the table the replay populates. Handlers wired to the
// replay may consult it during and after Replay.
func (tr *Reader) Objects() *object.Table { return tr.objs }

// SetMetrics attaches a collector to the replay's emitter (nil = disabled),
// so a replayed stream reports exactly the event counts and size sketches a
// live run of the same workload would.
func (tr *Reader) SetMetrics(c *metrics.Collector) { tr.metrics = c }

// maxPlausible bounds offsets and sizes decoded from the wire: any larger
// value cannot belong to a valid object and would overflow the int64
// arithmetic of downstream consumers.
const maxPlausible = 1 << 48

// Replay drives h with the recorded event stream. Every event is validated
// before it reaches the emitter — a corrupt or adversarial trace must
// surface as an error, never as a panic in the replay machinery.
func (tr *Reader) Replay(h Handler) error {
	em := NewEmitter(tr.objs, h)
	em.SetMetrics(tr.metrics)
	for {
		if err := tr.replayAccesses(em); err != nil {
			return err
		}
		tag, err := tr.br.ReadByte()
		if err != nil {
			return fmt.Errorf("trace: reading event tag: %w", err)
		}
		switch tag {
		case tagEnd:
			em.Flush()
			return nil
		case tagAlloc:
			obj, err1 := binary.ReadUvarint(tr.br)
			size, err2 := binary.ReadUvarint(tr.br)
			xor, err3 := binary.ReadUvarint(tr.br)
			if err1 != nil || err2 != nil || err3 != nil {
				return fmt.Errorf("trace: truncated alloc event")
			}
			if size == 0 || size >= maxPlausible {
				return fmt.Errorf("trace: implausible alloc size %d", size)
			}
			name, err := tr.readStr()
			if err != nil {
				return err
			}
			id := em.Malloc(name, int64(size), xor)
			if uint64(id) != obj {
				return fmt.Errorf("trace: alloc id drift: replay %d, recorded %d", id, obj)
			}
		case tagFree:
			obj, err := binary.ReadUvarint(tr.br)
			if err != nil {
				return fmt.Errorf("trace: truncated free event")
			}
			if obj >= uint64(tr.objs.Len()) {
				return fmt.Errorf("trace: free of undeclared object %d", obj)
			}
			in := tr.objs.Get(object.ID(obj))
			if in.Category != object.Heap {
				return fmt.Errorf("trace: free of non-heap object %d (%s)", obj, in.Category)
			}
			if in.DeathRef != 0 {
				return fmt.Errorf("trace: double free of object %d", obj)
			}
			em.Free(object.ID(obj))
		default:
			return fmt.Errorf("trace: unknown event tag %#x", tag)
		}
	}
}

// replayAccesses decodes access events, nearly the whole stream, in place
// from the reader's buffered window, and returns at the first other tag
// or at the end of the input. It is the only access decoder: it refills
// the window whenever less than one longest event remains, so a window
// shorter than that is the end of the input, and a varint that does not
// decode there is a truncated event.
func (tr *Reader) replayAccesses(em *Emitter) error {
	for {
		// Peek comes back short only at the end of the input or on a
		// read error; the source repeats its error to Replay's next read.
		win, _ := tr.br.Peek(maxAccessLen)
		if len(win) == maxAccessLen {
			win, _ = tr.br.Peek(tr.br.Buffered())
		}
		// Events starting before limit are whole in the window.
		limit := len(win)
		if limit >= maxAccessLen {
			limit -= maxAccessLen - 1
		}
		i := 0
		for i < limit {
			tag := win[i]
			if tag != tagLoad && tag != tagStore {
				_, _ = tr.br.Discard(i)
				return nil
			}
			j := i + 1
			obj, n1 := binary.Uvarint(win[j:])
			j += max(n1, 0)
			off, n2 := binary.Uvarint(win[j:])
			j += max(n2, 0)
			size, n3 := binary.Uvarint(win[j:])
			if n1 <= 0 || n2 <= 0 || n3 <= 0 {
				return fmt.Errorf("trace: truncated access event")
			}
			if obj >= uint64(tr.objs.Len()) {
				return fmt.Errorf("trace: access to undeclared object %d", obj)
			}
			if off >= maxPlausible || size >= maxPlausible {
				return fmt.Errorf("trace: implausible access %d+%d", off, size)
			}
			if in := tr.objs.Get(object.ID(obj)); int64(off)+int64(size) > in.Size {
				return fmt.Errorf("trace: access %s[%d:%d] outside object of size %d",
					in.Name, off, off+size, in.Size)
			}
			i = j + n3
			if tag == tagLoad {
				em.Load(object.ID(obj), int64(off), int64(size))
			} else {
				em.Store(object.ID(obj), int64(off), int64(size))
			}
		}
		_, _ = tr.br.Discard(i) // i <= len(win), all of it buffered
		if len(win) < maxAccessLen {
			return nil
		}
	}
}
