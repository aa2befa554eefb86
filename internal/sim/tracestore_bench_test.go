package sim

import (
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// eventCount is a consumer that only counts the events it is handed.
type eventCount uint64

func (c *eventCount) HandleEvent(trace.Event)       { *c++ }
func (c *eventCount) HandleBatch(evs []trace.Event) { *c += eventCount(len(evs)) }

// BenchmarkStoreReplay records gcc's train input at a small scale into a
// fresh trace store, then replays the entry into a counting consumer. It
// reports both sides per event: record-ns/event covers running the model
// and writing the framed entry, replay-ns/event covers reading, checking
// and decoding it back into events.
func BenchmarkStoreReplay(b *testing.B) {
	w, err := workload.Get("gcc")
	if err != nil {
		b.Fatal(err)
	}
	in := w.Train()
	in.Bursts = max(1, int(float64(in.Bursts)*0.25))
	opts := DefaultOptions()
	var record, replay time.Duration
	var events eventCount
	for i := 0; i < b.N; i++ {
		ts := NewTraceStore(TraceConfig{Dir: b.TempDir()}, w, nil)
		t0 := time.Now()
		src, err := ts.Open(in, opts)
		if err != nil {
			b.Fatal(err)
		}
		record += time.Since(t0)
		src.Close()

		t0 = time.Now()
		src, err = ts.Open(in, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := src.Drive(&events); err != nil {
			b.Fatal(err)
		}
		replay += time.Since(t0)
	}
	if events == 0 {
		b.Fatal("replay delivered no events")
	}
	perEvent := float64(events) / float64(b.N)
	b.ReportMetric(float64(record.Nanoseconds())/float64(b.N)/perEvent, "record-ns/event")
	b.ReportMetric(float64(replay.Nanoseconds())/float64(b.N)/perEvent, "replay-ns/event")
}
