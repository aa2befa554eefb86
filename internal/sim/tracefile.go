package sim

import (
	"io"

	"repro/internal/trace"
	"repro/internal/workload"
)

// RecordTrace runs the workload once and writes its full event stream —
// the ATOM trace-file analog — to out. The recorded trace can then be
// profiled and evaluated any number of times without re-running the model.
func RecordTrace(w workload.Workload, in workload.Input, out io.Writer, opts Options) error {
	spec := w.Spec()
	gdecls, cdecls := specDecls(spec)
	hdr := trace.FileHeader{StackSize: spec.StackSize, Globals: gdecls, Constants: cdecls}

	tee := make(trace.Tee, 0, 1)
	table, prog, em := buildRun(w, in, &tee, opts)
	tw, err := trace.NewWriter(out, hdr, table)
	if err != nil {
		return err
	}
	tee = append(tee, tw)
	w.Run(in, prog)
	em.Flush()
	return tw.Flush()
}

// ProfileFromTrace replays a recorded trace through the profiler. With
// opts.Parallelism > 1 the TRG build fans out exactly as a live profile
// pass would, reading through ProfileFrom's deepened replay buffers.
func ProfileFromTrace(r io.Reader, opts Options) (*ProfileResult, error) {
	src, err := OpenReplay(r, opts)
	if err != nil {
		return nil, err
	}
	return ProfileFrom(src, opts)
}
