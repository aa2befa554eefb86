// Package store is a content-addressed artifact cache shared safely by
// concurrent processes. Entries are keyed by a hash of their full
// provenance (whatever inputs determine the bytes) and of the store's own
// frame format, written in checksummed uncompressed frames, published
// atomically (temp file + rename), and coordinated across processes by an
// O_EXCL lock-file claim protocol: for each key, exactly one producer
// records while every other contender waits for the published entry. A
// maintenance pass packs small entries into bundle files (replay stays
// sequential-I/O friendly) and enforces a size cap by evicting
// least-recently-used entries.
//
// The store exists for the trace pipeline's record-once/replay-many
// split — sim.TraceStore is its only production client — but nothing in
// it knows about traces: it caches opaque byte streams by key.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

const (
	entryExt     = ".ctrace"
	claimExt     = ".claim"
	tmpPrefix    = ".tmp-"
	bundlePrefix = "bundle-"
	bundleExt    = ".cbundle"

	// DefaultPackThreshold is the on-disk size below which an entry
	// counts as a small shard worth packing into a bundle.
	DefaultPackThreshold = 64 << 10
	// DefaultStaleClaim is how old an untouched claim file must be
	// before contenders treat its holder as dead and take over. Active
	// producers refresh their claim at StaleClaim/4, so only a crashed
	// holder ever goes stale.
	DefaultStaleClaim = 2 * time.Minute
	// DefaultPoll is the wait-for-publisher polling interval.
	DefaultPoll = 25 * time.Millisecond
)

// Config parameterises one store directory.
type Config struct {
	// Dir is the shared store directory (created on first write).
	Dir string
	// MaxBytes caps the store's on-disk footprint; the eviction pass
	// removes least-recently-used entries beyond it. 0 = uncapped.
	MaxBytes int64
	// PackThreshold is the on-disk size below which Maintain packs
	// entries into bundles (0 = DefaultPackThreshold, < 0 disables).
	PackThreshold int64
	// StaleClaim is the claim-takeover age (0 = DefaultStaleClaim).
	StaleClaim time.Duration
	// Poll is the wait-for-publisher interval (0 = DefaultPoll).
	Poll time.Duration
	// Metrics receives hit/miss/wait/evict/byte accounting (nil = none).
	Metrics *metrics.Collector
}

func (c *Config) defaults() {
	if c.PackThreshold == 0 {
		c.PackThreshold = DefaultPackThreshold
	}
	if c.StaleClaim <= 0 {
		c.StaleClaim = DefaultStaleClaim
	}
	if c.Poll <= 0 {
		c.Poll = DefaultPoll
	}
}

// Key is a content address: a hash over the entry's full provenance plus
// a sanitized human-readable tag that keeps directory listings legible.
// Two keys with equal hashes are the same entry; the tag is cosmetic.
type Key struct {
	Tag  string
	Hash string
}

// KeyOf derives a key from the given provenance parts. Each part is
// length-prefixed before hashing, so no concatenation of distinct part
// lists can collide. The frame format's magic is hashed in first: the
// store owns its on-disk format, so entries written in an older format
// simply stop being addressable — they are recorded again once, never
// misread, and the old files age out through the LRU.
func KeyOf(tag string, parts ...string) Key {
	h := sha256.New()
	h.Write(frameMagic)
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	sum := h.Sum(nil)
	return Key{Tag: sanitize(tag), Hash: hex.EncodeToString(sum[:16])}
}

// name returns the key's entry file name within the store directory.
func (k Key) name() string { return k.Tag + "-" + k.Hash + entryExt }

// String renders the key for error messages.
func (k Key) String() string { return k.Tag + "-" + k.Hash }

// sanitize keeps tags portable as file-name components.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// Store manages one cache directory. All methods are safe for concurrent
// use by multiple goroutines and — via the claim protocol and atomic
// renames — by multiple Store instances in multiple processes sharing
// the directory.
type Store struct {
	cfg Config

	mu      sync.Mutex
	bundles map[string]*bundleFile
}

// New returns a store over cfg.Dir. The directory is created lazily on
// the first write, so a read-only store over a missing directory simply
// misses.
func New(cfg Config) *Store {
	cfg.defaults()
	return &Store{cfg: cfg, bundles: make(map[string]*bundleFile)}
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.cfg.Dir }

func (s *Store) entryPath(k Key) string { return filepath.Join(s.cfg.Dir, k.name()) }

// claimPathFor maps an entry file name to its claim file.
func (s *Store) claimPathFor(entryName string) string {
	return filepath.Join(s.cfg.Dir, strings.TrimSuffix(entryName, entryExt)+claimExt)
}

// entryReader pairs the verifying frame reader with the file it draws from.
type entryReader struct {
	io.Reader
	c io.Closer
}

func (er *entryReader) Close() error { return er.c.Close() }

// Get opens the entry for k, if present, as a checksum-verified
// sequential stream. The boolean reports presence; a present-but-corrupt entry is
// an error (fail loudly, never hand back wrong bytes).
func (s *Store) Get(k Key) (io.ReadCloser, bool, error) {
	rc, ok, err := s.open(k)
	if ok {
		s.cfg.Metrics.Add(metrics.StoreHits, 1)
	}
	return rc, ok, err
}

// open is Get without the hit accounting: standalone entry first, then
// the bundle index.
func (s *Store) open(k Key) (io.ReadCloser, bool, error) {
	path := s.entryPath(k)
	f, err := os.Open(path)
	if err == nil {
		var size int64
		if fi, err := f.Stat(); err == nil {
			size = fi.Size()
		}
		// Touch the access time explicitly: the LRU must work on
		// noatime mounts too.
		_ = os.Chtimes(path, time.Now(), time.Time{})
		fr, err := NewFrameReader(bufio.NewReaderSize(f, 64<<10))
		if err != nil {
			f.Close()
			return nil, false, fmt.Errorf("store: %s: %w", k, err)
		}
		s.cfg.Metrics.Add(metrics.StoreBytesRead, uint64(size))
		return &entryReader{Reader: fr, c: f}, true, nil
	}
	if !os.IsNotExist(err) {
		return nil, false, err
	}
	return s.openBundled(k)
}

// GetOrFill returns a reader for k's entry, recording it via fill if no
// process has yet: the claim winner records to a temp file and publishes
// with a rename; every loser polls for the published entry (taking over
// the claim if its holder goes stale). fill receives a plain writer —
// framing and checksums happen underneath.
func (s *Store) GetOrFill(k Key, fill func(w io.Writer) error) (io.ReadCloser, error) {
	waited := false
	for {
		rc, ok, err := s.open(k)
		if err != nil {
			return nil, err
		}
		if ok {
			if waited {
				s.cfg.Metrics.Add(metrics.StoreClaimWaits, 1)
			}
			s.cfg.Metrics.Add(metrics.StoreHits, 1)
			return rc, nil
		}
		claimed, err := s.claim(k)
		if err != nil {
			return nil, err
		}
		if !claimed {
			// Another producer holds the claim: wait for it to publish
			// (the top of the loop re-checks) or go stale.
			waited = true
			time.Sleep(s.cfg.Poll)
			continue
		}
		rc, err = s.record(k, fill)
		if err != nil {
			return nil, err
		}
		if rc != nil {
			return rc, nil
		}
		// record found the entry already published (we lost a race
		// between miss and claim); loop to open it normally.
	}
}

// claim tries to acquire k's recording claim. It returns false when the
// claim is held elsewhere; a claim untouched for longer than StaleClaim
// is taken over (renamed aside, then removed) so a crashed holder cannot
// wedge the key forever.
func (s *Store) claim(k Key) (bool, error) {
	if err := os.MkdirAll(s.cfg.Dir, 0o755); err != nil {
		return false, err
	}
	path := s.claimPathFor(k.name())
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err == nil {
		host, _ := os.Hostname()
		fmt.Fprintf(f, "pid=%d host=%s\n", os.Getpid(), host)
		return true, f.Close()
	}
	if !os.IsExist(err) {
		return false, err
	}
	fi, serr := os.Stat(path)
	if serr != nil {
		return false, nil // released in the meantime; retry
	}
	if time.Since(fi.ModTime()) > s.cfg.StaleClaim {
		// Take over atomically: only one contender wins the rename, so
		// a fresh claim re-created by a live producer is never removed.
		aside := fmt.Sprintf("%s.stale-%d-%d", path, os.Getpid(), time.Now().UnixNano())
		if os.Rename(path, aside) == nil {
			os.Remove(aside)
		}
	}
	return false, nil
}

// release drops k's claim.
func (s *Store) release(k Key) { os.Remove(s.claimPathFor(k.name())) }

// keepClaimFresh refreshes k's claim mtime periodically while a long
// record runs, so contenders never mistake a live producer for a dead
// one. The returned stop must be called before releasing the claim.
func (s *Store) keepClaimFresh(k Key) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(s.cfg.StaleClaim / 4)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				now := time.Now()
				_ = os.Chtimes(s.claimPathFor(k.name()), now, now)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// record runs fill under the held claim and publishes the entry. It
// returns (nil, nil) when the entry turned out to be published already.
// The returned reader is opened on the temp file before the rename, so
// it stays valid even if a concurrent eviction pass removes the entry
// immediately after publication.
func (s *Store) record(k Key, fill func(w io.Writer) error) (io.ReadCloser, error) {
	defer s.release(k)
	if _, err := os.Stat(s.entryPath(k)); err == nil {
		return nil, nil
	}
	stopTouch := s.keepClaimFresh(k)
	defer stopTouch()

	tmp, err := os.CreateTemp(s.cfg.Dir, tmpPrefix+"*")
	if err != nil {
		return nil, err
	}
	fw := NewFrameWriter(tmp, DefaultBlockSize)
	if err = fill(fw); err == nil {
		err = fw.Close()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("store: recording %s: %w", k, err)
	}
	rf, err := os.Open(tmp.Name())
	if err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := os.Rename(tmp.Name(), s.entryPath(k)); err != nil {
		rf.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	s.cfg.Metrics.Add(metrics.StoreMisses, 1)
	s.cfg.Metrics.Add(metrics.StoreBytesWritten, uint64(fw.BytesWritten()))
	if s.cfg.MaxBytes > 0 {
		_ = s.evict() // cap enforcement is best-effort on the hot path
	}
	fr, err := NewFrameReader(bufio.NewReaderSize(rf, 64<<10))
	if err != nil {
		rf.Close()
		return nil, fmt.Errorf("store: %s: %w", k, err)
	}
	return &entryReader{Reader: fr, c: rf}, nil
}

// Maintain runs the store's housekeeping: pack small entries into
// bundles, enforce the size cap, and sweep debris (orphaned temp files,
// stale claims) left by crashed processes.
func (s *Store) Maintain() error {
	if err := s.pack(); err != nil {
		return err
	}
	if s.cfg.MaxBytes > 0 {
		if err := s.evict(); err != nil {
			return err
		}
	}
	s.sweep()
	return nil
}

// lruEntry is one evictable unit: a standalone entry or a whole bundle.
type lruEntry struct {
	path    string
	name    string
	size    int64
	ts      time.Time
	claimed bool
	bundle  bool
}

// listEvictable scans the directory for evictable units. An entry with a
// fresh claim file alongside is in use (a producer or pinning reader owns
// it) and is never evicted.
func (s *Store) listEvictable() ([]lruEntry, error) {
	des, err := os.ReadDir(s.cfg.Dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []lruEntry
	for _, de := range des {
		name := de.Name()
		isEntry := strings.HasSuffix(name, entryExt)
		isBundle := strings.HasPrefix(name, bundlePrefix) && strings.HasSuffix(name, bundleExt)
		if !isEntry && !isBundle {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue // raced with a concurrent eviction
		}
		e := lruEntry{
			path:   filepath.Join(s.cfg.Dir, name),
			name:   name,
			size:   fi.Size(),
			ts:     lruTime(fi),
			bundle: isBundle,
		}
		if isEntry {
			if cfi, err := os.Stat(s.claimPathFor(name)); err == nil &&
				time.Since(cfi.ModTime()) <= s.cfg.StaleClaim {
				e.claimed = true
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// lruTime is an entry's recency: the later of its access time (bumped
// explicitly by open) and its modification time.
func lruTime(fi os.FileInfo) time.Time {
	if at := atime(fi); at.After(fi.ModTime()) {
		return at
	}
	return fi.ModTime()
}

// evict removes least-recently-used unclaimed entries until the store
// fits MaxBytes.
func (s *Store) evict() error {
	entries, err := s.listEvictable()
	if err != nil {
		return err
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	if total <= s.cfg.MaxBytes {
		return nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].ts.Equal(entries[j].ts) {
			return entries[i].ts.Before(entries[j].ts)
		}
		return entries[i].name < entries[j].name
	})
	for _, e := range entries {
		if total <= s.cfg.MaxBytes {
			break
		}
		if e.claimed {
			continue
		}
		if err := os.Remove(e.path); err != nil {
			if os.IsNotExist(err) {
				total -= e.size // a concurrent pass got it first
			}
			continue
		}
		total -= e.size
		s.cfg.Metrics.Add(metrics.StoreEvictions, 1)
		if e.bundle {
			s.mu.Lock()
			delete(s.bundles, e.path)
			s.mu.Unlock()
		}
	}
	return nil
}

// sweep removes debris a crashed process may have left: orphaned temp
// files and stale claim files (including stale takeover leftovers).
func (s *Store) sweep() {
	des, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return
	}
	for _, de := range des {
		name := de.Name()
		stale := strings.HasPrefix(name, tmpPrefix) ||
			strings.HasSuffix(name, claimExt) ||
			strings.Contains(name, claimExt+".stale-")
		if !stale {
			continue
		}
		fi, err := de.Info()
		if err != nil || time.Since(fi.ModTime()) <= s.cfg.StaleClaim {
			continue
		}
		os.Remove(filepath.Join(s.cfg.Dir, name))
	}
}

// Entries returns the number of distinct keys present (standalone files
// plus bundle members).
func (s *Store) Entries() (int, error) {
	des, err := os.ReadDir(s.cfg.Dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, de := range des {
		if strings.HasSuffix(de.Name(), entryExt) {
			n++
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refreshBundlesLocked(); err != nil {
		return 0, err
	}
	for _, b := range s.bundles {
		n += len(b.entries)
	}
	return n, nil
}
