package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// fillWith returns a fill function that writes payload and counts calls.
func fillWith(payload []byte, calls *atomic.Int64) func(io.Writer) error {
	return func(w io.Writer) error {
		if calls != nil {
			calls.Add(1)
		}
		_, err := w.Write(payload)
		return err
	}
}

func readAllClose(t *testing.T, rc io.ReadCloser) []byte {
	t.Helper()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("reading entry: %v", err)
	}
	if err := rc.Close(); err != nil {
		t.Fatalf("closing entry: %v", err)
	}
	return b
}

// TestKeyOfDistinct checks that provenance differences — including ones
// that concatenate identically — produce distinct hashes, while equal
// part lists agree.
func TestKeyOfDistinct(t *testing.T) {
	a := KeyOf("t", "ab", "c")
	b := KeyOf("t", "a", "bc")
	if a.Hash == b.Hash {
		t.Fatal("length-prefixing failed: shifted parts collide")
	}
	if KeyOf("x", "p", "q").Hash != KeyOf("y", "p", "q").Hash {
		t.Fatal("tag leaked into the hash: same parts, different hashes")
	}
	if !strings.Contains(KeyOf("a/b c", "p").name(), "a_b_c-") {
		t.Fatalf("tag not sanitized: %s", KeyOf("a/b c", "p").name())
	}
}

// TestGetOrFillRoundTrip covers miss-then-hit: the first call records, the
// second replays, both return the same bytes, and the counters agree.
func TestGetOrFillRoundTrip(t *testing.T) {
	mc := metrics.New()
	s := New(Config{Dir: t.TempDir(), Metrics: mc})
	k := KeyOf("rt", "input-1")
	payload := bytes.Repeat([]byte("event stream "), 5000)

	var calls atomic.Int64
	rc, err := s.GetOrFill(k, fillWith(payload, &calls))
	if err != nil {
		t.Fatalf("GetOrFill (cold): %v", err)
	}
	if got := readAllClose(t, rc); !bytes.Equal(got, payload) {
		t.Fatal("cold read diverged from recorded payload")
	}
	rc, err = s.GetOrFill(k, fillWith(payload, &calls))
	if err != nil {
		t.Fatalf("GetOrFill (warm): %v", err)
	}
	if got := readAllClose(t, rc); !bytes.Equal(got, payload) {
		t.Fatal("warm read diverged from recorded payload")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	if mc.Get(metrics.StoreMisses) != 1 || mc.Get(metrics.StoreHits) != 1 {
		t.Fatalf("counters: hits=%d misses=%d, want 1/1",
			mc.Get(metrics.StoreHits), mc.Get(metrics.StoreMisses))
	}
	if mc.Get(metrics.StoreBytesWritten) == 0 || mc.Get(metrics.StoreBytesRead) == 0 {
		t.Fatal("byte counters not accounted")
	}
}

// TestGetMissing checks the replay-only path: absent entries report !ok
// without error, and Get never creates the directory.
func TestGetMissing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never-created")
	s := New(Config{Dir: dir})
	if _, ok, err := s.Get(KeyOf("m", "x")); err != nil || ok {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("read-only Get created the store directory")
	}
}

// TestGetOrFillConcurrent races many goroutines on one cold key: exactly
// one fill must run, and every contender must read identical bytes.
func TestGetOrFillConcurrent(t *testing.T) {
	mc := metrics.New()
	s := New(Config{Dir: t.TempDir(), Poll: time.Millisecond, Metrics: mc})
	k := KeyOf("conc", "shared")
	payload := bytes.Repeat([]byte("shared trace "), 20000)

	var calls atomic.Int64
	fill := func(w io.Writer) error {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the race window
		_, err := w.Write(payload)
		return err
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc, err := s.GetOrFill(k, fill)
			if err != nil {
				errs[i] = err
				return
			}
			got, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				errs[i] = err
			} else if !bytes.Equal(got, payload) {
				errs[i] = fmt.Errorf("goroutine %d read diverged", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fill ran %d times under contention, want exactly 1", got)
	}
	if got := mc.Get(metrics.StoreMisses); got != 1 {
		t.Fatalf("misses=%d, want 1", got)
	}
	if got := mc.Get(metrics.StoreHits); got != n-1 {
		t.Fatalf("hits=%d, want %d", got, n-1)
	}
	if mc.Get(metrics.StoreClaimWaits) == 0 {
		t.Fatal("no claim waits recorded despite a deliberately slow fill")
	}
}

// TestStaleClaimTakeover backdates an orphaned claim (a crashed producer)
// and checks that a contender takes over and records.
func TestStaleClaimTakeover(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Dir: dir, StaleClaim: 50 * time.Millisecond, Poll: 5 * time.Millisecond})
	k := KeyOf("stale", "orphan")

	claim := s.claimPathFor(k.name())
	if err := os.WriteFile(claim, []byte("pid=0 host=crashed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(claim, old, old); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	done := make(chan error, 1)
	go func() {
		rc, err := s.GetOrFill(k, fillWith([]byte("recovered"), &calls))
		if err == nil {
			rc.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("GetOrFill after stale claim: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GetOrFill wedged behind a stale claim")
	}
	if calls.Load() != 1 {
		t.Fatalf("fill ran %d times, want 1", calls.Load())
	}
	if _, err := os.Stat(claim); !os.IsNotExist(err) {
		t.Fatal("stale claim not cleaned up after takeover")
	}
}

// TestWaitForPublisher pins the claim externally (simulating another
// process mid-record), publishes, and checks the waiter picks it up.
func TestWaitForPublisher(t *testing.T) {
	dir := t.TempDir()
	producer := New(Config{Dir: dir, Poll: time.Millisecond})
	waiter := New(Config{Dir: dir, Poll: time.Millisecond})
	k := KeyOf("wait", "slow")

	if ok, err := producer.claim(k); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	var waiterCalls atomic.Int64
	done := make(chan error, 1)
	go func() {
		rc, err := waiter.GetOrFill(k, fillWith([]byte("wrong: waiter must not record"), &waiterCalls))
		if err != nil {
			done <- err
			return
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err == nil && string(got) != "published" {
			err = fmt.Errorf("waiter read %q", got)
		}
		done <- err
	}()

	time.Sleep(20 * time.Millisecond) // let the waiter hit the claim
	rc, err := producer.record(k, fillWith([]byte("published"), nil))
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	rc.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never saw the published entry")
	}
	if waiterCalls.Load() != 0 {
		t.Fatal("waiter ran its own fill despite an active producer")
	}
}

// TestFillErrorLeavesNoEntry checks a failed record publishes nothing and
// releases the claim so a retry can succeed.
func TestFillErrorLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Dir: dir, Poll: time.Millisecond})
	k := KeyOf("fail", "x")
	boom := fmt.Errorf("producer failed")
	if _, err := s.GetOrFill(k, func(io.Writer) error { return boom }); err == nil {
		t.Fatal("failed fill reported success")
	}
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		if strings.HasSuffix(de.Name(), entryExt) || strings.HasSuffix(de.Name(), claimExt) {
			t.Fatalf("failed record left %s behind", de.Name())
		}
	}
	rc, err := s.GetOrFill(k, fillWith([]byte("retry"), nil))
	if err != nil {
		t.Fatalf("retry after failed fill: %v", err)
	}
	if got := readAllClose(t, rc); string(got) != "retry" {
		t.Fatalf("retry read %q", got)
	}
}

// TestCorruptEntryFailsLoudly truncates a published entry on disk and
// checks the next reader surfaces an error rather than short bytes.
func TestCorruptEntryFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Dir: dir})
	k := KeyOf("corrupt", "x")
	rc, err := s.GetOrFill(k, fillWith(bytes.Repeat([]byte("payload"), 10000), nil))
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()

	path := s.entryPath(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	rc, ok, err := s.Get(k)
	if err != nil {
		return // rejected at open: loud enough
	}
	if !ok {
		t.Fatal("truncated entry reported as absent")
	}
	if _, err := io.ReadAll(rc); err == nil {
		t.Fatal("truncated entry read cleanly")
	}
	rc.Close()
}

// TestSweep checks crash debris (old temp files and stale claims) is
// removed while fresh files survive.
func TestSweep(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Dir: dir, StaleClaim: 50 * time.Millisecond})
	old := time.Now().Add(-time.Minute)
	for _, name := range []string{tmpPrefix + "orphan", "dead-claim" + claimExt} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	fresh := filepath.Join(dir, tmpPrefix+"live")
	if err := os.WriteFile(fresh, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s.sweep()
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"orphan")); !os.IsNotExist(err) {
		t.Fatal("old temp file survived sweep")
	}
	if _, err := os.Stat(filepath.Join(dir, "dead-claim"+claimExt)); !os.IsNotExist(err) {
		t.Fatal("stale claim survived sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp file swept")
	}
}

// legacyKeyOf is KeyOf as it derived keys before the frame format was
// hashed in: the address every "ccdpfrm1" entry was published under.
func legacyKeyOf(tag string, parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	sum := h.Sum(nil)
	return Key{Tag: sanitize(tag), Hash: hex.EncodeToString(sum[:16])}
}

// TestOldFormatEntryReRecorded plants an entry written in the retired
// compressed frame format under the key it was published with, and checks
// the store records the key afresh (once, no error) instead of misreading
// it, while the stale file ages out through the LRU.
func TestOldFormatEntryReRecorded(t *testing.T) {
	// A genuine "ccdpfrm1" stream (flate-compressed frame) holding
	// "recorded in the old format".
	oldStream := []byte("ccdpfrm1\x1a$4\x1a\xab\xec\x00\x1a\x00\xe5\xffrecorded in the old format\x01\x00\x00\xff\xff\x00")
	old := legacyKeyOf("old", "input-1")
	if old.Hash != "6300864a987698e9724ddf62a327d86d" {
		t.Fatalf("legacy key derivation drifted: %s", old.Hash)
	}
	k := KeyOf("old", "input-1")
	if k.Hash == old.Hash {
		t.Fatal("frame format does not reach the key hash")
	}
	if _, err := NewFrameReader(bytes.NewReader(oldStream)); err == nil {
		t.Fatal("current reader accepted an old-format stream")
	}

	dir := t.TempDir()
	oldPath := filepath.Join(dir, old.name())
	if err := os.WriteFile(oldPath, oldStream, 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(oldPath, past, past); err != nil {
		t.Fatal(err)
	}

	payload := []byte("recorded in the current format")
	mc := metrics.New()
	// Cap the store at exactly the fresh entry, so recording it evicts
	// the older stale one.
	s := New(Config{Dir: dir, MaxBytes: int64(len(frameStream(payload, 0))), Metrics: mc})
	var calls atomic.Int64
	for pass := 0; pass < 2; pass++ {
		rc, err := s.GetOrFill(k, fillWith(payload, &calls))
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if got := readAllClose(t, rc); !bytes.Equal(got, payload) {
			t.Fatalf("pass %d read %q", pass, got)
		}
	}
	if calls.Load() != 1 || mc.Get(metrics.StoreMisses) != 1 || mc.Get(metrics.StoreHits) != 1 {
		t.Fatalf("fills=%d misses=%d hits=%d, want one re-record then one hit",
			calls.Load(), mc.Get(metrics.StoreMisses), mc.Get(metrics.StoreHits))
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Fatalf("old-format entry not evicted: %v", err)
	}
	if mc.Get(metrics.StoreEvictions) != 1 {
		t.Fatalf("evictions=%d, want 1", mc.Get(metrics.StoreEvictions))
	}
}
