package structix

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/opscript"
	"structix/internal/persist"
	"structix/internal/repl"
	"structix/internal/wal"
)

// Index is what the store needs of a maintained structural index: exactly
// the method set the 1-index and the A(k) family share. Both publish the
// same Snapshot type, which is what lets one store serve either.
type Index interface {
	opscript.Target // per-op edge, node and subtree maintenance; Graph
	ApplyBatch(ops []EdgeOp) error
	AddSubgraph(sg *Subgraph) ([]NodeID, error)
	Freeze(data *graph.Frozen) *Snapshot
	PatchSnapshot(prev *Snapshot, data *graph.Frozen) *Snapshot
	SetSnapshotCodec(c ExtentCodec)
	SnapshotCodec() ExtentCodec
	Validate() error
}

var (
	_ Index = (*OneIndex)(nil)
	_ Index = (*AkIndex)(nil)
)

// Shard is one shard of a DB, in the shard's own (local) ids: a
// structural index served through epoch snapshots. Writers run serialized
// behind a mutex and publish a new immutable Snapshot with an atomic
// pointer swap, re-copying only the pages of the inodes and graph nodes
// they touched (the index's dirty set says which inodes; the graph copies
// its own pages as it writes them); readers take no lock and never block
// on maintenance, answering from the most recently published state.
//
// A durable shard (openShard) holds a 1-index — the partition the on-disk
// format holds — and journals every write to its own write-ahead log
// before acknowledging it, following the commit protocol
//
//	apply → journal append → (fsync per policy) → publish snapshot → return
//
// so a write the caller has seen return is recoverable (under SyncAlways
// and SyncWindow it is already on disk), and recovery can never surface a
// partially applied record: the journal record is the unit of atomicity.
// A background compactor persists the current snapshot and truncates the
// journal below it, off immutable views, so neither readers nor writers
// block on it. An in-memory shard (newShard) holds either index family
// and journals nothing.
//
// The DB routes to its shards; the server's committers and replication
// write through them. The wrapped index and graph must not be touched
// directly while the shard is in use.
type Shard struct {
	dir    string
	opts   Options
	log    *wal.Log    // nil for an in-memory shard
	labels *labelSpace // the DB's: a cut's LabelIDs are translated into it

	mu         sync.Mutex // serializes writers; journal order == apply order
	idx        Index
	cur        atomic.Pointer[Snapshot]
	appliedSeq atomic.Uint64 // journal seq of the last applied record (written under mu)
	sinceSnap  int           // ops journaled since the compactor was last poked (under mu)
	closed     bool
	failed     error // sticky: a journal append failed after apply; shard is read-only (under mu)

	// visibleSeq is the journal seq covered by the published snapshot: it
	// trails appliedSeq by exactly the apply→publish window, and advances
	// only after cur holds the record's effects — the bound WaitForSeq
	// (read-your-writes) waits on. seqWatch broadcasts its advances.
	visibleSeq atomic.Uint64
	seqMu      sync.Mutex
	seqWatch   chan struct{}

	// leader is the leader base URL on a follower (OpenFollower): the
	// shard applies replicated records but rejects local writes with a
	// *NotLeaderError. runner is the stream tail loop.
	leader string
	runner *repl.Runner

	snapSeq     atomic.Uint64 // journal coverage of the newest on-disk snapshot
	compactions atomic.Int64
	compactErr  error // last compaction failure (under mu)

	replayed  int   // journal records replayed by openShard
	tornBytes int64 // torn-tail bytes discarded by openShard

	compactReq  chan struct{}
	compactDone chan struct{}
}

const (
	walSubdir  = "wal"
	snapPrefix = "snap-"
	snapSuffix = ".sx"
	tmpSuffix  = ".tmp" // writeFileAtomic's not-yet-renamed file
)

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	if len(name) != len(snapPrefix)+16+len(snapSuffix) ||
		name[:len(snapPrefix)] != snapPrefix || name[len(name)-len(snapSuffix):] != snapSuffix {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name[len(snapPrefix):len(name)-len(snapSuffix)], "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// isSnapTmp reports whether name is the temp file of a snapshot write
// that never reached its rename — what a process killed mid-compaction
// leaves behind.
func isSnapTmp(name string) bool {
	base, ok := strings.CutSuffix(name, tmpSuffix)
	if !ok {
		return false
	}
	_, ok = parseSnapName(base)
	return ok
}

// openShard opens (or creates) the durable shard in dir and recovers its
// state: the newest readable snapshot is loaded and the journal tail
// replayed on top, truncating a torn final frame if the previous process
// died mid-write. The returned shard owns dir until close.
func openShard(dir string, opts Options) (*Shard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("structix: %w", err)
	}

	// Newest readable snapshot wins; an unreadable newest one (a crash
	// can't produce this — snapshots appear by atomic rename — but disks
	// can) falls back to its predecessor, which the journal still covers
	// because compaction truncates only below the *older* of the two
	// retained snapshots (see compactOnce). If the journal nevertheless
	// cannot reach back to the fallback, replay fails with wal.ErrGap and
	// openShard reports it instead of recovering a silently partial state.
	seqs, stale, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range stale {
		// A crashed compaction's leftover. Best effort, like the prune in
		// writeSnapshot: a file that will not go costs disk, not correctness.
		os.Remove(filepath.Join(dir, name))
	}
	var base *Database
	baseSeq := uint64(0)
	hadSnap := false
	for i := len(seqs) - 1; i >= 0 && base == nil; i-- {
		f, err := os.Open(filepath.Join(dir, snapName(seqs[i])))
		if err != nil {
			return nil, fmt.Errorf("structix: %w", err)
		}
		db, lerr := persist.LoadDatabaseAuto(f)
		f.Close()
		if lerr != nil {
			err = fmt.Errorf("structix: snapshot %s: %w", snapName(seqs[i]), lerr)
			if i == 0 {
				return nil, err
			}
			continue
		}
		base, baseSeq, hadSnap = db, seqs[i], true
	}
	if base == nil {
		if base, err = bootstrapState(opts.Bootstrap); err != nil {
			return nil, err
		}
	}
	idx := base.One
	if idx == nil {
		idx = oneindex.Build(base.Graph)
	}

	log, err := wal.Open(filepath.Join(dir, walSubdir), wal.Options{
		Policy:       opts.Sync,
		Interval:     opts.SyncInterval,
		SegmentBytes: opts.SegmentBytes,
		FirstSeq:     baseSeq + 1,
	})
	if err != nil {
		return nil, err
	}

	sh := &Shard{dir: dir, opts: opts, log: log, idx: idx}
	sh.appliedSeq.Store(baseSeq)
	sh.snapSeq.Store(baseSeq)
	sh.tornBytes = log.TruncatedBytes()
	if err := log.Replay(baseSeq+1, func(rec *wal.Record) error {
		if _, _, err := apply(idx, rec); err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
		}
		sh.appliedSeq.Store(rec.Seq)
		sh.replayed++
		return nil
	}); err != nil {
		log.Close()
		return nil, fmt.Errorf("structix: replaying journal: %w", err)
	}
	idx.SetSnapshotCodec(opts.Extents)
	sh.cur.Store(idx.Freeze(idx.Graph().Freeze()))
	sh.visibleSeq.Store(sh.appliedSeq.Load())

	// A brand-new shard pins its initial state on disk before the first
	// write, so recovery never depends on re-running Bootstrap; the same
	// write also covers the snapshotless-journal case (replayed > 0).
	if !hadSnap {
		if err := sh.writeSnapshot(sh.appliedSeq.Load(), sh.cur.Load()); err != nil {
			log.Close()
			return nil, err
		}
	}

	if opts.CompactEvery > 0 {
		sh.compactReq = make(chan struct{}, 1)
		sh.compactDone = make(chan struct{})
		go sh.compactLoop()
	}
	return sh, nil
}

// bootstrapState is the initial state of a brand-new store: bootstrap's,
// or with none an empty graph with a root node.
func bootstrapState(bootstrap func() (*Database, error)) (*Database, error) {
	if bootstrap == nil {
		g := graph.New()
		g.AddRoot()
		return &Database{Graph: g}, nil
	}
	base, err := bootstrap()
	if err != nil {
		return nil, fmt.Errorf("structix: bootstrap: %w", err)
	}
	if base == nil || base.Graph == nil {
		return nil, errors.New("structix: bootstrap returned no graph")
	}
	return base, nil
}

// newShard wraps an already-built index of either family as an in-memory
// shard: the same handle and serving model, journaling disabled.
func newShard(idx Index) *Shard {
	sh := &Shard{idx: idx}
	sh.cur.Store(idx.Freeze(idx.Graph().Freeze()))
	return sh
}

// listSnapshots returns the seqs of dir's snapshot files in ascending
// order, and the names of the snapshot temp files beside them (isSnapTmp)
// for openShard to remove.
func listSnapshots(dir string) (seqs []uint64, staleTmp []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("structix: %w", err)
	}
	for _, e := range entries {
		if seq, ok := parseSnapName(e.Name()); ok {
			seqs = append(seqs, seq)
		} else if isSnapTmp(e.Name()) {
			staleTmp = append(staleTmp, e.Name())
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, staleTmp, nil
}

// apply applies one journal record to x. It is the only code that
// changes a store's index: the leader's write, openShard's replay and a
// follower's ApplyRecord all come here, so the same record runs the same
// code wherever it is applied. Application is deterministic (NodeIDs are
// assigned densely in order, labels re-interned by name), so replaying the
// journal against the snapshot it was written on top of reproduces the
// pre-crash state exactly. An edge record applies atomically; a script
// stops at its first failing op, leaving the ops before it applied (res
// says how many); a subgraph is grafted with its label names interned in
// x's graph. cut is the subtree the script's last delsub removed.
func apply(x Index, rec *wal.Record) (res OpResult, cut *Subgraph, err error) {
	switch rec.Kind {
	case wal.RecEdges:
		if err := x.ApplyBatch(rec.Edges); err != nil {
			return res, nil, err
		}
		return opscript.BatchResult(rec.Edges), nil, nil
	case wal.RecScript:
		return opscript.ApplyCut(x, rec.Script)
	case wal.RecSubgraph:
		p := rec.Sub
		in := x.Graph().Labels()
		sg := &Subgraph{
			Labels:    make([]graph.LabelID, len(p.Labels)),
			Values:    p.Values,
			Edges:     p.Edges,
			EdgeKinds: p.EdgeKinds,
			CrossIn:   p.CrossIn,
			CrossOut:  p.CrossOut,
		}
		for i, name := range p.Labels {
			sg.Labels[i] = in.Intern(name)
		}
		res.NewNodes, err = x.AddSubgraph(sg)
		return res, nil, err
	}
	return res, nil, fmt.Errorf("unknown record kind %v", rec.Kind)
}

// ---- write path ----

// publish stores the successor of the current snapshot: Freeze hands
// over the graph's copy-on-write pages as they stand, and the index's
// dirty set says what to re-copy, so every write kind costs what it
// touched. Callers hold sh.mu.
func (sh *Shard) publish() {
	sh.cur.Store(sh.idx.PatchSnapshot(sh.cur.Load(), sh.idx.Graph().Freeze()))
	sh.noteVisible()
}

// noteVisible advances the published-seq bound to the applied seq and
// wakes WaitForSeq parkers: the snapshot just stored covers everything
// journaled so far. Callers hold sh.mu.
func (sh *Shard) noteVisible() {
	sh.visibleSeq.Store(sh.appliedSeq.Load())
	sh.seqMu.Lock()
	if sh.seqWatch != nil {
		close(sh.seqWatch)
		sh.seqWatch = nil
	}
	sh.seqMu.Unlock()
}

// commit makes a record just applied to the live index durable and
// visible — the tail the leader's write and a follower's ApplyRecord
// share: journal it, account its ops toward the compaction cadence, and
// publish the snapshot. A failed append leaves the mutation unpublished
// and freezes the shard (see journalFailed). Callers hold sh.mu and have
// passed their gate.
func (sh *Shard) commit(rec *wal.Record) error {
	if sh.log != nil {
		seq, err := sh.log.Append(rec)
		if err != nil {
			return sh.journalFailed(err)
		}
		sh.appliedSeq.Store(seq)
		sh.sinceSnap += rec.Ops()
		if sh.compactReq != nil && sh.sinceSnap >= sh.opts.CompactEvery {
			sh.sinceSnap = 0
			select {
			case sh.compactReq <- struct{}{}:
			default:
			}
		}
	}
	sh.publish()
	return nil
}

// journalFailed freezes the shard after a journal append failed for a
// mutation already applied to the live index: the in-memory state has
// diverged from the durable history, so the mutation is NOT published
// (readers keep seeing the last journaled state), every later write
// fails with the original cause, and no further snapshot is written
// (close included) — otherwise a write the caller was told failed could
// become durable. Callers hold sh.mu.
func (sh *Shard) journalFailed(err error) error {
	if sh.failed == nil {
		sh.failed = err
	}
	return sh.failed
}

// writeErr gates the write entry points. Callers hold sh.mu.
func (sh *Shard) writeErr() error {
	if sh.closed {
		return ErrClosed
	}
	if sh.failed != nil {
		return sh.failed
	}
	if sh.leader != "" {
		return &NotLeaderError{Leader: sh.leader}
	}
	return nil
}

// write is the one leader write: gate, apply the record, journal exactly
// what applied, publish. A script that stops part-way journals its applied
// prefix; a record that applied nothing journals and publishes nothing.
// A cut comes back with its LabelIDs in the DB's label space. The
// end-of-window durability barrier is the caller's (EndWindow).
func (sh *Shard) write(rec *wal.Record) (res OpResult, cut *Subgraph, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.writeErr(); err != nil {
		return res, nil, err
	}
	res, cut, err = apply(sh.idx, rec)
	if cut != nil {
		cut.Labels = sh.labels.adopt(sh.idx.Graph().Labels(), cut.Labels)
	}
	if rec.Kind == wal.RecScript {
		if res.Applied == 0 {
			return res, cut, err
		}
		if res.Applied < len(rec.Script) {
			rec = &wal.Record{Kind: wal.RecScript, Script: rec.Script[:res.Applied]}
		}
	} else if err != nil {
		return res, cut, err
	}
	if cerr := sh.commit(rec); cerr != nil {
		return res, cut, cerr
	}
	return res, cut, err
}

// WriteWindowed applies one write record (shard-local ids), journals what
// applied and publishes the snapshot — WITHOUT the end-of-window
// durability barrier. This is the group-commit building block: the
// committer writes every request of a window through it, then calls
// EndWindow once before acknowledging any of them. A rejected edge record
// (*BatchError) applies, journals and publishes nothing; a script stops
// at its first failing op (*OpError) with the ops before it committed.
func (sh *Shard) WriteWindowed(rec *wal.Record) (OpResult, error) {
	res, _, err := sh.write(rec)
	return res, err
}

// EndWindow is the end-of-commit-window durability barrier: under
// SyncWindow it fsyncs everything the window appended (one fsync for the
// whole window); under the other policies appends are already durable
// (SyncAlways) or deliberately not awaited (SyncInterval, SyncNone), so
// it is a no-op. Callers acknowledge a window's writers only after it.
func (sh *Shard) EndWindow() error {
	if sh.log == nil || sh.log.Policy() != wal.SyncWindow {
		return nil
	}
	return sh.log.Sync()
}

// Update runs fn with exclusive access to the live index and publishes
// the snapshot if fn succeeds — in memory only, since the journal cannot
// capture what fn did (a durable shard refuses without running fn). A
// failing fn must leave the index as it found it: what it half-did stays
// unpublished until the next successful write republishes.
func (sh *Shard) Update(fn func(Index) error) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return ErrClosed
	}
	if sh.log != nil {
		return errors.New("structix: Update bypasses the journal; use the typed write methods on a durable DB")
	}
	if err := fn(sh.idx); err != nil {
		return err
	}
	sh.publish()
	return nil
}

// sync is an explicit durability barrier: it fsyncs every journaled
// record, whatever the policy. No-op on an in-memory shard.
func (sh *Shard) sync() error {
	if sh.log == nil {
		return nil
	}
	return sh.log.Sync()
}

// Snapshot returns the shard's current epoch snapshot: one atomic load,
// never blocks, remains valid indefinitely.
func (sh *Shard) Snapshot() *Snapshot { return sh.cur.Load() }

// setExtentCodec switches the representation future snapshots freeze
// extents into and immediately publishes a re-frozen snapshot under the
// new codec (see DB.SetExtentCodec).
func (sh *Shard) setExtentCodec(c ExtentCodec) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return ErrClosed
	}
	if sh.idx.SnapshotCodec() == c {
		return nil
	}
	sh.idx.SetSnapshotCodec(c)
	sh.publish()
	return nil
}

// validate checks graph and index invariants under the writer lock.
func (sh *Shard) validate() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.idx.Graph().Validate(); err != nil {
		return err
	}
	return sh.idx.Validate()
}

// ---- compaction ----

func (sh *Shard) compactLoop() {
	defer close(sh.compactDone)
	for range sh.compactReq {
		err := sh.compactOnce()
		sh.mu.Lock()
		sh.compactErr = err
		sh.mu.Unlock()
	}
}

// compactOnce writes the current snapshot to disk and truncates the
// journal — only below the *older* of the two retained snapshots, so
// that if the newest one turns out unreadable, openShard can fall back to
// its predecessor and still replay a complete journal tail over it.
// Everything slow happens against immutable state: the lock is held only
// to pair the snapshot pointer with its journal coverage.
func (sh *Shard) compactOnce() error {
	sh.mu.Lock()
	if sh.failed != nil {
		// The live index holds a mutation the journal never recorded (see
		// journalFailed); snapshotting it would make a write the caller
		// saw fail durable.
		err := sh.failed
		sh.mu.Unlock()
		return err
	}
	snap := sh.cur.Load()
	seq := sh.appliedSeq.Load()
	sh.mu.Unlock()
	if seq <= sh.snapSeq.Load() {
		return nil
	}
	if err := sh.writeSnapshot(seq, snap); err != nil {
		return err
	}
	keep := seq
	if seqs, _, err := listSnapshots(sh.dir); err == nil && len(seqs) >= 2 {
		keep = seqs[len(seqs)-2]
	}
	return sh.log.RemoveBelow(keep + 1)
}

// writeSnapshot persists snap as the snapshot covering journal seq,
// atomically (writeFileAtomic). Older snapshot files beyond one fallback
// are pruned.
func (sh *Shard) writeSnapshot(seq uint64, snap *Snapshot) error {
	err := writeFileAtomic(sh.dir, snapName(seq), func(w io.Writer) error {
		if err := persist.SaveSnapshotCompressed(w, snap); err != nil {
			return fmt.Errorf("structix: writing snapshot: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sh.snapSeq.Store(seq)
	sh.compactions.Add(1)
	// Keep the newest snapshot plus one fallback.
	if seqs, _, err := listSnapshots(sh.dir); err == nil && len(seqs) > 2 {
		for _, s := range seqs[:len(seqs)-2] {
			os.Remove(filepath.Join(sh.dir, snapName(s)))
		}
	}
	return nil
}

// writeFileAtomic publishes dir/name so that it exists completely or not
// at all: write + fsync a temp file, rename it into place, fsync the
// directory. The temp file is removed on every error, and a dir/name that
// already exists is replaced only by the rename. write's own error is
// returned as is.
func writeFileAtomic(dir, name string, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, name+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("structix: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("structix: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("structix: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("structix: %w", err)
	}
	return wal.SyncDir(dir)
}

// close seals the shard: writes stop, a final snapshot pins the current
// state (making the next open a snapshot load with an empty tail), and
// the journal is fsynced and closed. close is idempotent.
func (sh *Shard) close() error {
	// A follower stops tailing first, so no replicated record races the
	// seal (Runner.Stop is idempotent and waits for the apply loop).
	if sh.runner != nil {
		sh.runner.Stop()
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil
	}
	sh.closed = true
	sh.mu.Unlock()

	if sh.compactReq != nil {
		close(sh.compactReq)
		<-sh.compactDone
	}
	if sh.log == nil {
		return nil
	}
	err := sh.compactOnce()
	if cerr := sh.log.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// ---- observability ----

// DBStats is a point-in-time durability report for /v1/stats and the
// benchmarks: one shard's (Shard.Stats) or the whole store's (DB.Stats).
type DBStats struct {
	// Durable is false for an in-memory store (NewDB); everything below
	// it is zero there.
	Durable bool   `json:"durable"`
	Dir     string `json:"dir,omitempty"`
	// Policy is the journal fsync policy ("always", "window", ...).
	Policy string `json:"policy,omitempty"`
	// AppliedSeq is the journal seq of the last applied record;
	// DurableSeq is the newest seq known fsynced; SnapshotSeq is the
	// coverage of the newest on-disk snapshot.
	AppliedSeq  uint64 `json:"applied_seq"`
	DurableSeq  uint64 `json:"durable_seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Journal shape and traffic.
	JournalSegments int   `json:"journal_segments"`
	JournalBytes    int64 `json:"journal_bytes"`
	JournalAppends  int64 `json:"journal_appends"`
	JournalSyncs    int64 `json:"journal_syncs"`
	// Compactions counts background + close snapshots written.
	Compactions int64 `json:"compactions"`
	// Recovery evidence from Open: records replayed on top of the loaded
	// snapshot, and torn-tail bytes discarded.
	ReplayedRecords  int   `json:"replayed_records"`
	TornBytesDropped int64 `json:"torn_bytes_dropped"`
	// CompactError is the last background-compaction failure ("" = none).
	CompactError string `json:"compact_error,omitempty"`
	// WriteError is the sticky journal failure that froze the store
	// read-only ("" = none): a mutation applied but could not be
	// journaled, so writes stopped to keep the error outcome and the
	// durable state in agreement.
	WriteError string `json:"write_error,omitempty"`
}

// Stats returns the shard's current durability counters; safe alongside
// writes.
func (sh *Shard) Stats() DBStats {
	if sh.log == nil {
		return DBStats{}
	}
	ls := sh.log.Stats()
	st := DBStats{
		Durable:          true,
		Dir:              sh.dir,
		Policy:           ls.Policy.String(),
		DurableSeq:       ls.DurableSeq,
		SnapshotSeq:      sh.snapSeq.Load(),
		JournalSegments:  ls.Segments,
		JournalBytes:     ls.Bytes,
		JournalAppends:   ls.Appends,
		JournalSyncs:     ls.Syncs,
		Compactions:      sh.compactions.Load(),
		ReplayedRecords:  sh.replayed,
		TornBytesDropped: sh.tornBytes,
	}
	sh.mu.Lock()
	st.AppliedSeq = sh.appliedSeq.Load()
	if sh.compactErr != nil {
		st.CompactError = sh.compactErr.Error()
	}
	if sh.failed != nil {
		st.WriteError = sh.failed.Error()
	}
	sh.mu.Unlock()
	return st
}
