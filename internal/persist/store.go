package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lake"
	"repro/internal/table"
)

// Options configures a Store.
type Options struct {
	// FS is the filesystem to persist through; nil means the real one.
	// Tests inject MemFS here.
	FS FS
	// SnapshotEvery automatically folds the WAL into a fresh snapshot once
	// this many records have accumulated past the newest snapshot. 0 means
	// the default (256); negative disables automatic snapshots.
	SnapshotEvery int
}

const defaultSnapshotEvery = 256

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = defaultSnapshotEvery
	}
	return o
}

// Status is a point-in-time view of the store's durability state, surfaced
// through the serve health endpoint.
type Status struct {
	FormatMajor int       `json:"format_major"`
	FormatMinor int       `json:"format_minor"`
	SnapshotSeq uint64    `json:"snapshot_seq"` // last sequence folded into the newest snapshot
	Snapshots   int       `json:"snapshots"`    // snapshot generations on disk
	Seq         uint64    `json:"seq"`          // last acknowledged mutation
	WALRecords  int       `json:"wal_records"`
	WALBytes    int64     `json:"wal_bytes"`
	LastSync    time.Time `json:"last_sync"` // completion of the newest WAL or snapshot fsync
	// ReadOnly reports degraded mode: a WAL or snapshot write failed (disk
	// full, I/O error), so the store refuses further mutations while queries
	// keep working. See ErrReadOnly.
	ReadOnly       bool   `json:"read_only,omitempty"`
	ReadOnlyReason string `json:"read_only_reason,omitempty"`
}

// ErrReadOnly is wrapped by every mutation refused in degraded mode. A
// store degrades the moment a WAL append/sync or snapshot write fails:
// after a failed append the tail of the log is in an unknown state, so
// appending more records could land them after garbage and lose them to
// the recovery-time torn-tail truncation. Reads stay fully served; the
// state acknowledged before the failure is durable. The mode is sticky for
// the life of the process — recover by restarting (Open truncates the torn
// tail) once the underlying condition (disk space, permissions) is fixed.
var ErrReadOnly = errors.New("persist: store degraded to read-only")

// Store binds a lake to a directory: every Add/Remove is appended to the
// write-ahead log and fsynced before it is applied in memory and
// acknowledged, and Snapshot folds the accumulated log into a fresh
// checksummed snapshot. Create starts a directory from a built lake; Open
// recovers one — newest readable snapshot, WAL replayed over it, torn tail
// truncated.
//
// Two snapshot generations are retained: after a snapshot at sequence N
// the previous newest (P) survives and the WAL is pruned only to records
// past P, so if snap-N is later found damaged, recovery falls back to
// snap-P and replays forward to the same state. Only when every generation
// is unreadable does Open refuse.
//
// Mutations through the store are serialized; queries against Lake() run
// concurrently, exactly as with a bare lake. Status never waits on a
// mutation: it reads the state published after the last one.
type Store struct {
	opts Options
	fsys FS
	dir  string

	mu         sync.Mutex
	l          *lake.Lake
	wal        File
	walRecords int
	walBytes   int64
	seq        uint64   // last acknowledged mutation sequence
	snapSeq    uint64   // sequence covered by the newest snapshot
	snaps      []uint64 // snapshot generations on disk, ascending
	lastSync   time.Time
	broken     error
	readOnly   error // non-nil once a disk write failed; wraps ErrReadOnly

	// status is the Status as of the last state change, published before
	// mu is released: mu is held across every WAL fsync and snapshot write.
	status atomic.Pointer[Status]
}

// Exists reports whether dir already holds a persisted lake — at least one
// snapshot generation. A missing or empty directory is simply "no", not an
// error; callers use this to pick between Create and Open.
func Exists(dir string, opts Options) bool {
	opts = opts.withDefaults()
	seqs, err := listSnapshots(opts.FS, dir)
	return err == nil && len(seqs) > 0
}

// Create initializes dir as the durable home of l: an initial snapshot of
// the lake's current state plus an empty WAL. It refuses a directory that
// already holds a snapshot (Open that instead) or that it cannot list.
func Create(dir string, l *lake.Lake, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("persist: create: %w", err)
	}
	seqs, err := listSnapshots(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("persist: create: %w", err)
	}
	if len(seqs) > 0 {
		return nil, fmt.Errorf("persist: create: %s already holds %d snapshot(s); open it instead", dir, len(seqs))
	}
	if err := writeSnapshot(fsys, dir, l, 0); err != nil {
		return nil, err
	}
	wal, walBytes, err := rewriteWAL(fsys, dir, nil)
	if err != nil {
		return nil, err
	}
	s := &Store{
		opts:     opts,
		fsys:     fsys,
		dir:      dir,
		l:        l,
		wal:      wal,
		walBytes: walBytes,
		snaps:    []uint64{0},
		lastSync: time.Now(),
	}
	s.publishLocked()
	return s, nil
}

// Open recovers the lake persisted in dir: it loads the newest snapshot
// generation that decodes cleanly (falling back past checksum failures,
// removing the damaged files), builds the lake from it with lake.New,
// replays every WAL record not yet folded into it, truncates the log at the
// first torn or corrupt record, and reopens the log for appending.
// Snapshots or logs written by a different format major version are refused
// with a VersionError, never guessed at. Only a missing log means nothing
// was logged; a log that cannot be read refuses Open.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	seqs, err := listSnapshots(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("persist: open: %w", err)
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("persist: open: no snapshot in %s", dir)
	}
	walPath := filepath.Join(dir, walFile)
	walImg, err := fsys.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		// An unreadable log may hold acknowledged records: refuse before
		// anything is written, never rewrite it empty.
		return nil, fmt.Errorf("persist: open: %w", err)
	}
	recs, validLen, err := decodeWAL(walImg)
	if err != nil {
		return nil, err
	}

	// Newest generation first; each failed generation is recorded and its
	// file removed so it cannot shadow the good one we settle on.
	var l *lake.Lake
	var genErrs []error
	chosen := -1
	for i := len(seqs) - 1; i >= 0; i-- {
		st, snapSeq, rerr := readSnapshot(fsys, dir, snapName(seqs[i]))
		if rerr == nil && snapSeq != seqs[i] {
			rerr = corruptf("%s: header sequence %d does not match file name", snapName(seqs[i]), snapSeq)
		}
		if rerr == nil {
			l, rerr = buildLake(st)
			if rerr != nil {
				rerr = fmt.Errorf("%w: %s: %s", ErrCorrupt, snapName(seqs[i]), rerr)
			}
		}
		if rerr == nil {
			chosen = i
			break
		}
		if !errors.Is(rerr, ErrCorrupt) {
			return nil, rerr // I/O failure or version refusal: do not guess
		}
		genErrs = append(genErrs, rerr)
	}
	if chosen < 0 {
		return nil, fmt.Errorf("persist: open: every snapshot generation in %s is unreadable: %w", dir, errors.Join(genErrs...))
	}
	for i := chosen + 1; i < len(seqs); i++ {
		if err := fsys.Remove(filepath.Join(dir, snapName(seqs[i]))); err != nil {
			return nil, fmt.Errorf("persist: open: removing damaged snapshot: %w", err)
		}
	}
	if len(genErrs) > 0 {
		if err := fsys.SyncDir(dir); err != nil {
			return nil, fmt.Errorf("persist: open: %w", err)
		}
	}
	s := &Store{
		opts:    opts,
		fsys:    fsys,
		dir:     dir,
		l:       l,
		seq:     seqs[chosen],
		snapSeq: seqs[chosen],
		snaps:   seqs[:chosen+1],
	}
	// Replay the records past the snapshot, in order. These all carry
	// intact checksums, and the WAL-before-apply protocol only logs batches
	// that passed validation — so replay failure means the directory's
	// snapshot and log disagree, which is refusal territory, not fallback.
	for _, r := range recs {
		if r.seq <= s.seq {
			continue
		}
		var aerr error
		switch r.op {
		case walOpAdd:
			aerr = l.Add(r.tables...)
		case walOpRemove:
			aerr = l.Remove(r.names...)
		}
		if aerr != nil {
			return nil, fmt.Errorf("persist: open: replaying WAL record %d: %w", r.seq, aerr)
		}
		s.seq = r.seq
	}
	// Reopen the log for appending. A torn tail (or a missing log file) is
	// rewritten to exactly the valid records first, so new appends never
	// land after garbage.
	if validLen == len(walImg) && len(walImg) >= walHeaderLen {
		wal, werr := fsys.Append(walPath)
		if werr != nil {
			return nil, fmt.Errorf("persist: open: %w", werr)
		}
		s.wal = wal
		s.walBytes = int64(validLen)
		s.walRecords = len(recs)
	} else {
		frames := make([][]byte, len(recs))
		for i, r := range recs {
			frames[i] = r.raw
		}
		wal, walBytes, werr := rewriteWAL(fsys, dir, frames)
		if werr != nil {
			return nil, werr
		}
		s.wal = wal
		s.walBytes = walBytes
		s.walRecords = len(recs)
	}
	s.lastSync = time.Now()
	s.publishLocked()
	return s, nil
}

// rewriteWAL atomically replaces the WAL with header+frames (see
// replaceFile) and reopens it for appending.
func rewriteWAL(fsys FS, dir string, frames [][]byte) (File, int64, error) {
	final := filepath.Join(dir, walFile)
	n, err := replaceFile(fsys, final, append([][]byte{walHeader()}, frames...)...)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: wal: %w", err)
	}
	h, err := fsys.Append(final)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: wal: %w", err)
	}
	return h, n, nil
}

// Lake returns the lake this store persists. Queries go straight to it;
// mutations must go through the store's Add/Remove to be durable.
func (s *Store) Lake() *lake.Lake {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l
}

// degradeLocked flips the store read-only after a disk write failure and
// returns the sticky refusal error. s.mu must be held. First failure wins:
// the recorded reason is the root cause operators see on /healthz.
func (s *Store) degradeLocked(op string, cause error) error {
	if s.readOnly == nil {
		s.readOnly = fmt.Errorf("%w: %s failed: %v", ErrReadOnly, op, cause)
	}
	return s.readOnly
}

// appendWAL appends one framed record and fsyncs it. s.mu must be held.
// Any failure degrades the store to read-only: the log tail is in an
// unknown state afterwards, and appending past it could corrupt records
// that a later recovery would otherwise replay.
func (s *Store) appendWAL(frame []byte) error {
	if _, err := s.wal.Write(frame); err != nil {
		return s.degradeLocked("wal append", err)
	}
	if err := s.wal.Sync(); err != nil {
		return s.degradeLocked("wal sync", err)
	}
	s.walRecords++
	s.walBytes += int64(len(frame))
	s.lastSync = time.Now()
	return nil
}

// Add durably indexes tables into the lake: the batch is validated, logged
// and fsynced, and only then applied in memory — an Add that returned nil
// survives any crash from that point on. An error before the log sync
// means the batch took no effect at all; an error from the automatic
// snapshot trigger (the rare tail case) still leaves the mutation durable
// and applied.
func (s *Store) Add(tables ...*table.Table) error {
	if len(tables) == 0 {
		return nil
	}
	return s.logged("add",
		func() error { return lake.CheckAdd("persist: add", tables, s.l.Get) },
		func(seq uint64) []byte { return encodeAddRecord(seq, tables) },
		func() error { return s.l.Add(tables...) })
}

// Remove durably drops the named tables, with the same logging contract as
// Add.
func (s *Store) Remove(names ...string) error {
	if len(names) == 0 {
		return nil
	}
	return s.logged("remove",
		func() error { _, err := lake.CheckRemove("persist: remove", names, s.l.Get); return err },
		func(seq uint64) []byte { return encodeRemoveRecord(seq, names) },
		func() error { return s.l.Remove(names...) })
}

// logged is the store's one mutation path, in this order: the sticky
// broken and read-only refusals; validate, so the log only ever records
// batches that apply cleanly (replay depends on it — these are the lake's
// own atomic checks); append the record for the next sequence and fsync
// it; apply it to the lake; advance seq; fire the snapshot trigger. A
// logged record that then fails to apply breaks the store for good: the
// log and the lake disagree. op ("add", "remove") names the mutation in
// that error.
func (s *Store) logged(op string, validate func() error, record func(seq uint64) []byte, apply func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishLocked()
	if err := s.refusalLocked(); err != nil {
		return err
	}
	if err := validate(); err != nil {
		return err
	}
	if err := s.appendWAL(record(s.seq + 1)); err != nil {
		return err
	}
	if err := apply(); err != nil {
		s.broken = fmt.Errorf("persist: store inconsistent: logged %s failed to apply: %w", op, err)
		return s.broken
	}
	s.seq++
	return s.maybeSnapshotLocked()
}

// refusalLocked returns the sticky error that refuses every write — the
// store is broken, or degraded to read-only — or nil. s.mu must be held.
func (s *Store) refusalLocked() error {
	if s.broken != nil {
		return s.broken
	}
	return s.readOnly
}

// maybeSnapshotLocked fires the automatic snapshot trigger once enough log
// records have accumulated past the newest snapshot.
func (s *Store) maybeSnapshotLocked() error {
	if s.opts.SnapshotEvery <= 0 || s.seq-s.snapSeq < uint64(s.opts.SnapshotEvery) {
		return nil
	}
	return s.snapshotLocked()
}

// Snapshot folds the current lake state into a fresh snapshot generation,
// retires all but the previous one, and prunes the WAL to the records the
// previous generation might still need (so one damaged snapshot never
// costs any acknowledged state). It is a no-op when no mutation happened
// since the newest snapshot.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishLocked()
	if err := s.refusalLocked(); err != nil {
		return err
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	if len(s.snaps) > 0 && s.snapSeq == s.seq {
		return nil
	}
	if err := writeSnapshot(s.fsys, s.dir, s.l, s.seq); err != nil {
		// A snapshot that failed to write is a disk-side fault (full disk,
		// I/O error): degrade rather than keep retrying writes. When the
		// automatic trigger fired this error from inside Add/Remove, the
		// mutation itself is already logged, applied and durable.
		return s.degradeLocked("snapshot write", err)
	}
	s.lastSync = time.Now()
	prev := s.snapSeq
	s.snaps = append(s.snaps, s.seq)
	s.snapSeq = s.seq
	removed := false
	for len(s.snaps) > 2 {
		if err := s.fsys.Remove(filepath.Join(s.dir, snapName(s.snaps[0]))); err != nil {
			return s.degradeLocked("snapshot retire", err)
		}
		s.snaps = s.snaps[1:]
		removed = true
	}
	if removed {
		if err := s.fsys.SyncDir(s.dir); err != nil {
			return s.degradeLocked("snapshot dir sync", err)
		}
	}
	return s.pruneWALLocked(prev)
}

// pruneWALLocked rewrites the WAL keeping only records past prev — the
// generation the store can still fall back to. It selects the frames by
// their headers and sequence numbers (walFramesPast) and decodes no record.
func (s *Store) pruneWALLocked(prev uint64) error {
	b, err := s.fsys.ReadFile(filepath.Join(s.dir, walFile))
	if err != nil {
		return fmt.Errorf("persist: wal prune: %w", err)
	}
	frames, err := walFramesPast(b, prev)
	if err != nil {
		return err
	}
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	wal, walBytes, err := rewriteWAL(s.fsys, s.dir, frames)
	if err != nil {
		return s.degradeLocked("wal prune", err)
	}
	s.wal = wal
	s.walBytes = walBytes
	s.walRecords = len(frames)
	s.lastSync = time.Now()
	return nil
}

// Status reports the store's durability state as of the last completed
// mutation or snapshot. It takes no lock, so it answers while a write sits
// in an fsync.
func (s *Store) Status() Status { return *s.status.Load() }

// publishLocked publishes the store's current state for Status. s.mu must
// be held, or the store not yet shared.
func (s *Store) publishLocked() {
	st := &Status{
		FormatMajor: FormatMajor,
		FormatMinor: FormatMinor,
		SnapshotSeq: s.snapSeq,
		Snapshots:   len(s.snaps),
		Seq:         s.seq,
		WALRecords:  s.walRecords,
		WALBytes:    s.walBytes,
		LastSync:    s.lastSync,
	}
	if s.readOnly != nil {
		st.ReadOnly = true
		st.ReadOnlyReason = s.readOnly.Error()
	}
	s.status.Store(st)
}

// ReadOnly reports the degraded-mode state: nil when the store accepts
// mutations, the sticky ErrReadOnly-wrapping cause otherwise.
func (s *Store) ReadOnly() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readOnly
}

// Close syncs and closes the log. The store must not be used afterwards;
// acknowledged mutations are already durable, so Close loses nothing even
// when skipped — it exists so shutdown releases the file handle promptly.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	syncErr := s.wal.Sync()
	closeErr := s.wal.Close()
	s.wal = nil
	return errors.Join(syncErr, closeErr)
}
