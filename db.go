package structix

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/opscript"
	"structix/internal/persist"
	"structix/internal/query"
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

// DB is the one store: a structural index served through epoch snapshots.
// Writers run serialized behind a mutex and publish a new immutable
// Snapshot with an atomic pointer swap; Eval, Count, Size and View read
// the current snapshot with a single atomic load — readers never take a
// lock and never block on maintenance, at the cost of answering from the
// state as of the most recently completed write. Publication is
// copy-on-write: a write re-copies only the pages of the inodes and graph
// nodes it touched (the index's dirty set says which inodes; the graph
// copies its own pages as it writes them), not the whole index.
//
// Open makes the store durable: every write is journaled to a write-ahead
// log before it is acknowledged, so the state survives crashes. Open loads
// the last durable snapshot, replays the journal tail (discarding a torn
// tail frame), and returns a handle whose writes follow the commit
// protocol
//
//	apply → journal append → (fsync per policy) → publish snapshot → return
//
// so a write the caller has seen return is recoverable (under SyncAlways
// and SyncWindow it is already on disk), and recovery can never surface a
// partially applied batch: the journal record is the unit of atomicity.
// A durable store is a 1-index store: that is the partition the on-disk
// format holds.
//
// A background compactor periodically persists the current snapshot and
// truncates the journal below it; both run off immutable views, so
// neither readers nor the write path block on compaction.
//
// NewDB builds the same handle without a directory, over either index
// family: an in-memory store with journaling disabled.
//
// The wrapped index and graph must not be touched directly while the DB
// is in use.
type DB struct {
	dir  string
	opts Options
	log  *wal.Log // nil for an in-memory DB

	mu         sync.Mutex // serializes writers; journal order == apply order
	idx        Index
	cur        atomic.Pointer[Snapshot]
	appliedSeq atomic.Uint64 // journal seq of the last applied record (written under mu)
	sinceSnap  int           // ops journaled since the compactor was last poked (under mu)
	closed     bool
	failed     error // sticky: a journal append failed after apply; store is read-only (under mu)

	// visibleSeq is the journal seq covered by the published snapshot: it
	// trails appliedSeq by exactly the apply→publish window, and advances
	// only after cur holds the record's effects — the bound WaitForSeq
	// (read-your-writes) waits on. seqWatch broadcasts its advances.
	visibleSeq atomic.Uint64
	seqMu      sync.Mutex
	seqWatch   chan struct{}

	// leader is the leader base URL on a follower (OpenFollower): the
	// store applies replicated records but rejects local writes with a
	// *NotLeaderError. runner is the stream tail loop.
	leader string
	runner *repl.Runner

	snapSeq     atomic.Uint64 // journal coverage of the newest on-disk snapshot
	compactions atomic.Int64
	compactErr  error // last compaction failure (under mu)

	replayed  int   // journal records replayed by Open
	tornBytes int64 // torn-tail bytes discarded by Open

	compactReq  chan struct{}
	compactDone chan struct{}
}

// SyncPolicy selects when journal appends are fsynced; see the wal
// package for the full semantics of each policy.
type SyncPolicy = wal.SyncPolicy

// Fsync policies for Options.Sync.
const (
	// SyncWindow fsyncs once per commit window (the default): durability
	// piggybacks on group commit, one fsync covers every write in the
	// window, and the window's writers are acknowledged only after it.
	SyncWindow = wal.SyncWindow
	// SyncAlways fsyncs inside every journal append.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a background ticker (Options.SyncInterval):
	// acknowledgments do not wait, loss after a crash is bounded by the
	// interval.
	SyncInterval = wal.SyncInterval
	// SyncNone never fsyncs; the OS page cache decides.
	SyncNone = wal.SyncNone
)

// ParseSyncPolicy reads a policy name ("always", "window", "interval",
// "none") as spelled on command lines.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// Options tunes Open; the zero value is a SyncWindow store with default
// segment size and compaction cadence.
type Options struct {
	// Sync is the journal fsync policy. Default SyncWindow.
	Sync SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval.
	// Default 100ms.
	SyncInterval time.Duration
	// SegmentBytes rolls the journal to a new segment beyond this size.
	// Default 64 MiB.
	SegmentBytes int64
	// CompactEvery triggers a background snapshot + journal truncation
	// after this many journaled ops — not records: an edge batch weighs
	// its ops, a script its applied ops, a grafted subgraph its nodes — so
	// the journal tail recovery replays is bounded in ops, which is what
	// replay time is proportional to, however the writes were grouped into
	// records. A caller committing one op per record sees records == ops.
	// Default 65536; negative disables background compaction (Close still
	// writes a final snapshot).
	CompactEvery int
	// Bootstrap supplies the initial state for a directory that has no
	// snapshot yet (a brand-new store). When nil, the store starts as an
	// empty graph with a root node. The bootstrapped state is snapshotted
	// during Open, before any journaling, so Bootstrap is never re-run on
	// recovery — except by OpenSharded, which may re-run it to rebuild a
	// shard that crashed before its first snapshot; it must therefore be
	// deterministic under OpenSharded.
	Bootstrap func() (*Database, error)
	// Shards is the shard count for OpenSharded (default 1). Ignored by
	// Open. An existing sharded directory pins its count in a manifest;
	// a non-zero Shards disagreeing with the manifest is an error.
	Shards int
	// Extents selects the snapshot extent representation (default
	// ExtentsDense). ExtentsCompressed trades a little decode work on the
	// query path for a large reduction in resident snapshot bytes; the
	// live index and the journal format are unaffected, so the codec can
	// differ freely between runs of the same store.
	Extents ExtentCodec
}

func (o Options) withDefaults() Options {
	if o.CompactEvery == 0 {
		o.CompactEvery = 65536
	}
	return o
}

// ErrClosed is returned by every operation on a closed DB.
var ErrClosed = errors.New("structix: database is closed")

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

// Open opens (or creates) the durable store in dir and recovers its
// state: the newest readable snapshot is loaded and the journal tail
// replayed on top, truncating a torn final frame if the previous process
// died mid-write. The returned DB owns dir until Close.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("structix: %w", err)
	}

	// Newest readable snapshot wins; an unreadable newest one (a crash
	// can't produce this — snapshots appear by atomic rename — but disks
	// can) falls back to its predecessor, which the journal still covers
	// because compaction truncates only below the *older* of the two
	// retained snapshots (see compactOnce). If the journal nevertheless
	// cannot reach back to the fallback, replay fails with wal.ErrGap and
	// Open reports it instead of recovering a silently partial state.
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
		if opts.Bootstrap != nil {
			if base, err = opts.Bootstrap(); err != nil {
				return nil, fmt.Errorf("structix: bootstrap: %w", err)
			}
			if base == nil || base.Graph == nil {
				return nil, errors.New("structix: bootstrap returned no graph")
			}
		} else {
			g := graph.New()
			g.AddRoot()
			base = &Database{Graph: g}
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

	db := &DB{dir: dir, opts: opts, log: log, idx: idx}
	db.appliedSeq.Store(baseSeq)
	db.snapSeq.Store(baseSeq)
	db.tornBytes = log.TruncatedBytes()
	if err := log.Replay(baseSeq+1, func(rec *wal.Record) error {
		if err := replayRecord(idx, rec); err != nil {
			return err
		}
		db.appliedSeq.Store(rec.Seq)
		db.replayed++
		return nil
	}); err != nil {
		log.Close()
		return nil, fmt.Errorf("structix: replaying journal: %w", err)
	}
	idx.SetSnapshotCodec(opts.Extents)
	db.cur.Store(idx.Freeze(idx.Graph().Freeze()))
	db.visibleSeq.Store(db.appliedSeq.Load())

	// A brand-new store pins its initial state on disk before the first
	// write, so recovery never depends on re-running Bootstrap; the same
	// write also covers the snapshotless-journal case (replayed > 0).
	if !hadSnap {
		if err := db.writeSnapshot(db.appliedSeq.Load(), db.cur.Load()); err != nil {
			log.Close()
			return nil, err
		}
	}

	if opts.CompactEvery > 0 {
		db.compactReq = make(chan struct{}, 1)
		db.compactDone = make(chan struct{})
		go db.compactLoop()
	}
	return db, nil
}

// NewDB wraps an already-built index of either family — a 1-index or an
// A(k) family, whose level-k snapshots answer exactly by validating what
// the index alone cannot decide — as an in-memory DB: the same handle and
// serving model, journaling disabled. Open is the durable variant.
func NewDB(idx Index) *DB {
	db := &DB{idx: idx}
	db.cur.Store(idx.Freeze(idx.Graph().Freeze()))
	return db
}

// listSnapshots returns the seqs of dir's snapshot files in ascending
// order, and the names of the snapshot temp files beside them (isSnapTmp)
// for Open to remove.
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

// replayRecord applies one journal record to the live index. Application
// is deterministic (NodeIDs are assigned densely in order, labels are
// re-interned by name), so replaying the journal against the snapshot it
// was written on top of reproduces the pre-crash state exactly; any
// failure here means the journal and snapshot disagree and recovery must
// stop rather than guess.
func replayRecord(x Index, rec *wal.Record) error {
	switch rec.Kind {
	case wal.RecEdges:
		if err := x.ApplyBatch(rec.Edges); err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
		}
	case wal.RecScript:
		res, err := opscript.Apply(x, rec.Script)
		if err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
		}
		if res.Applied != len(rec.Script) {
			return fmt.Errorf("record %d: script stopped at op %d of %d", rec.Seq, res.Applied, len(rec.Script))
		}
	case wal.RecSubgraph:
		if _, err := graftPayload(x, rec.Sub); err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
		}
	default:
		return fmt.Errorf("record %d: unknown kind %v", rec.Seq, rec.Kind)
	}
	return nil
}

// graftPayload grafts a journal-form subgraph onto x, interning its label
// names in x's graph — the one conversion behind the live write, recovery
// and a follower's apply.
func graftPayload(x Index, p *wal.SubgraphPayload) ([]NodeID, error) {
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
	return x.AddSubgraph(sg)
}

// ---- write path ----

// publish stores the successor of the current snapshot: Freeze hands
// over the graph's copy-on-write pages as they stand, and the index's
// dirty set says what to re-copy, so every write kind costs what it
// touched. Callers hold db.mu.
func (db *DB) publish() {
	db.cur.Store(db.idx.PatchSnapshot(db.cur.Load(), db.idx.Graph().Freeze()))
	db.noteVisible()
}

// noteVisible advances the published-seq bound to the applied seq and
// wakes WaitForSeq parkers: the snapshot just stored covers everything
// journaled so far. Callers hold db.mu.
func (db *DB) noteVisible() {
	db.visibleSeq.Store(db.appliedSeq.Load())
	db.seqMu.Lock()
	if db.seqWatch != nil {
		close(db.seqWatch)
		db.seqWatch = nil
	}
	db.seqMu.Unlock()
}

// noteRecord accounts one journaled record of the given weight in ops and
// pokes the compactor when the cadence is due. Callers hold db.mu.
func (db *DB) noteRecord(seq uint64, ops int) {
	db.appliedSeq.Store(seq)
	db.sinceSnap += ops
	if db.compactReq != nil && db.sinceSnap >= db.opts.CompactEvery {
		db.sinceSnap = 0
		select {
		case db.compactReq <- struct{}{}:
		default:
		}
	}
}

// commit makes a mutation just applied to the live index durable and
// visible — the tail every write shares: journal it (journal appends the
// record naming it), account the record's ops toward the compaction
// cadence, publish the snapshot. A failed append leaves the mutation
// unpublished and freezes the store (see journalFailed). Callers hold
// db.mu and have passed their gate.
func (db *DB) commit(ops int, journal func(*wal.Log) (uint64, error)) error {
	if db.log != nil {
		seq, err := journal(db.log)
		if err != nil {
			return db.journalFailed(err)
		}
		db.noteRecord(seq, ops)
	}
	db.publish()
	return nil
}

// journalFailed freezes the store after a journal append failed for a
// mutation already applied to the live index: the in-memory state has
// diverged from the durable history, so the mutation is NOT published
// (readers keep seeing the last journaled state), every later write
// fails with the original cause, and no further snapshot is written
// (Close included) — otherwise a write the caller was told failed could
// become durable. Callers hold db.mu.
func (db *DB) journalFailed(err error) error {
	if db.failed == nil {
		db.failed = err
	}
	return db.failed
}

// writeErr gates the write entry points. Callers hold db.mu.
func (db *DB) writeErr() error {
	if db.closed {
		return ErrClosed
	}
	if db.failed != nil {
		return db.failed
	}
	if db.leader != "" {
		return &NotLeaderError{Leader: db.leader}
	}
	return nil
}

// ApplyBatchWindowed applies a batch of edge updates atomically, journals
// it as one record, and publishes the snapshot — WITHOUT the end-of-window
// durability barrier. This is the group-commit building block: the
// committer applies every request of a window through the Windowed entry
// points, then calls EndWindow once before acknowledging any of them.
// A rejected batch (*BatchError) applies, journals and publishes nothing.
func (db *DB) ApplyBatchWindowed(ops []EdgeOp) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.writeErr(); err != nil {
		return err
	}
	if err := db.idx.ApplyBatch(ops); err != nil {
		return err
	}
	return db.commit(len(ops), func(l *wal.Log) (uint64, error) { return l.AppendEdges(ops) })
}

// ApplyScriptWindowed runs a script with stop-at-first-error semantics,
// journals exactly the applied prefix, and publishes the snapshot —
// without the end-of-window barrier (see ApplyBatchWindowed).
func (db *DB) ApplyScriptWindowed(ops []ScriptOp) (OpResult, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.writeErr(); err != nil {
		return OpResult{}, err
	}
	res, aerr := opscript.Apply(db.idx, ops)
	if res.Applied == 0 {
		return res, aerr
	}
	if err := db.commit(res.Applied, func(l *wal.Log) (uint64, error) { return l.AppendScript(ops[:res.Applied]) }); err != nil {
		return res, err
	}
	return res, aerr
}

// EndWindow is the end-of-commit-window durability barrier: under
// SyncWindow it fsyncs everything the window appended (one fsync for the
// whole window); under the other policies appends are already durable
// (SyncAlways) or deliberately not awaited (SyncInterval, SyncNone), so
// it is a no-op. Callers acknowledge a window's writers only after it.
func (db *DB) EndWindow() error {
	if db.log == nil || db.log.Policy() != wal.SyncWindow {
		return nil
	}
	return db.log.Sync()
}

// ApplyBatch applies a batch of edge updates atomically, as its own
// commit window: when ApplyBatch returns, the batch is applied, published
// and — under SyncAlways and SyncWindow — durable.
func (db *DB) ApplyBatch(ops []EdgeOp) error {
	if err := db.ApplyBatchWindowed(ops); err != nil {
		return err
	}
	return db.EndWindow()
}

// ApplyScript runs a script as its own commit window (see ApplyBatch).
// Stop-at-first-error semantics: the applied prefix commits and is
// journaled; the failing op and everything after it do not.
func (db *DB) ApplyScript(ops []ScriptOp) (OpResult, error) {
	res, err := db.ApplyScriptWindowed(ops)
	if serr := db.EndWindow(); serr != nil && err == nil {
		err = serr
	}
	return res, err
}

// InsertEdge inserts a dedge as its own commit window.
func (db *DB) InsertEdge(u, v NodeID, kind EdgeKind) error {
	_, err := db.ApplyScript([]ScriptOp{{Kind: opscript.Insert, U: u, V: v, Edge: kind}})
	return unwrapOpError(err)
}

// DeleteEdge deletes a dedge as its own commit window.
func (db *DB) DeleteEdge(u, v NodeID) error {
	_, err := db.ApplyScript([]ScriptOp{{Kind: opscript.Delete, U: u, V: v}})
	return unwrapOpError(err)
}

// InsertNode adds a node labeled label under parent (tree edge) as its
// own commit window.
func (db *DB) InsertNode(label string, parent NodeID) (NodeID, error) {
	res, err := db.ApplyScript([]ScriptOp{{Kind: opscript.AddNode, Label: label, V: parent}})
	if err != nil {
		return InvalidNode, unwrapOpError(err)
	}
	return res.NewNodes[0], nil
}

// DeleteNode removes a node and its edges as its own commit window.
func (db *DB) DeleteNode(v NodeID) error {
	_, err := db.ApplyScript([]ScriptOp{{Kind: opscript.DelNode, U: v}})
	return unwrapOpError(err)
}

// DeleteSubtree removes the subtree rooted at root (following tree edges
// only, the §7.1 workload convention) as its own commit window.
func (db *DB) DeleteSubtree(root NodeID) (*Subgraph, error) {
	_, sg, err := db.DeleteSubtreeNamed(root)
	return sg, err
}

// AddSubgraph grafts a subgraph as its own commit window. This is the
// operation the textual script syntax cannot express (the re-add half of
// the subtree round trip): the journal record carries the full payload —
// label names, values, internal and boundary-crossing edges — so replay
// re-grafts the identical subtree.
func (db *DB) AddSubgraph(sg *Subgraph) ([]NodeID, error) {
	// A LabelID names the same label for the store's lifetime, so the names
	// stay right across the gap between the two critical sections.
	db.mu.Lock()
	names := labelNames(db.idx.Graph(), sg.Labels)
	db.mu.Unlock()
	return db.AddSubgraphNamed(names, sg)
}

func labelNames(g *Graph, labels []graph.LabelID) []string {
	names := make([]string, len(labels))
	for i, l := range labels {
		names[i] = g.Labels().Name(l)
	}
	return names
}

// ValidateBatch checks that ops would apply cleanly against the current
// graph, without applying anything: the same overlay pre-validation
// ApplyBatch itself runs, exposed so a cross-shard coordinator can
// validate every shard's sub-batch before committing to any of them. A
// nil return from every shard guarantees the subsequent per-shard applies
// succeed, provided no other writer intervenes.
func (db *DB) ValidateBatch(ops []EdgeOp) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.writeErr(); err != nil {
		return err
	}
	return db.idx.Graph().ValidateOps(ops)
}

// AddSubgraphNamed is AddSubgraph with the labels given by name instead of
// by this store's LabelIDs — the cross-store transfer form (exactly what
// the journal's subgraph records carry): sg.Labels is ignored and names
// re-interned here, so a subtree extracted from one store (or one shard)
// grafts into another whose interner assigns different ids.
func (db *DB) AddSubgraphNamed(names []string, sg *Subgraph) ([]NodeID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.writeErr(); err != nil {
		return nil, err
	}
	p := &wal.SubgraphPayload{
		Labels:    names,
		Values:    sg.Values,
		Edges:     sg.Edges,
		EdgeKinds: sg.EdgeKinds,
		CrossIn:   sg.CrossIn,
		CrossOut:  sg.CrossOut,
	}
	ids, err := graftPayload(db.idx, p)
	if err != nil {
		return nil, err
	}
	if err := db.commit(len(names), func(l *wal.Log) (uint64, error) { return l.AppendSubgraph(p) }); err != nil {
		return nil, err
	}
	return ids, db.EndWindow()
}

// DeleteSubtreeNamed removes the subtree rooted at root as its own commit
// window, also returning the label name of each subgraph-local node,
// resolved under the writer lock — the form a cross-store coordinator
// needs, since the returned Subgraph's LabelIDs are meaningless outside
// this store's interner.
func (db *DB) DeleteSubtreeNamed(root NodeID) ([]string, *Subgraph, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.writeErr(); err != nil {
		return nil, nil, err
	}
	sg, err := db.idx.DeleteSubgraph(root, true)
	if err != nil {
		return nil, nil, err
	}
	if err := db.commit(1, func(l *wal.Log) (uint64, error) {
		return l.AppendScript([]ScriptOp{{Kind: opscript.DelSub, U: root}})
	}); err != nil {
		return nil, nil, err
	}
	return labelNames(db.idx.Graph(), sg.Labels), sg, db.EndWindow()
}

// unwrapOpError strips the single-op script wrapper from the convenience
// entry points, surfacing the graph sentinel directly (errors.Is works
// either way; direct callers expect the bare cause).
func unwrapOpError(err error) error {
	var oe *opscript.OpError
	if errors.As(err, &oe) {
		return oe.Err
	}
	return err
}

// Update runs fn with exclusive access to the live index — available only
// on an in-memory DB, because the journal cannot capture what fn did. On
// a durable DB it fails without running fn; use the typed write methods.
//
// The snapshot is published only when fn succeeds: a caller that was told
// its update failed must not have readers observe it anyway. A failing fn
// must therefore leave the index as it found it (the typed write surfaces
// all satisfy this); anything it half-did before failing stays invisible
// until the next successful write republishes.
func (db *DB) Update(fn func(Index) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.log != nil {
		return errors.New("structix: Update bypasses the journal; use the typed write methods on a durable DB")
	}
	if err := fn(db.idx); err != nil {
		return err
	}
	db.publish()
	return nil
}

// Sync is an explicit durability barrier: it fsyncs every journaled
// record, whatever the policy. No-op on an in-memory DB.
func (db *DB) Sync() error {
	if db.log == nil {
		return nil
	}
	return db.log.Sync()
}

// ---- read path (lock-free epoch snapshots) ----

// Snapshot returns the current epoch snapshot: one atomic load, never
// blocks, remains valid indefinitely.
func (db *DB) Snapshot() *Snapshot { return db.cur.Load() }

// Eval evaluates a path expression against the current snapshot: the
// exact result on either index family.
func (db *DB) Eval(p *Path) []NodeID { return query.EvalSnapshot(p, db.cur.Load()) }

// EvalCtx is Eval under a context: an abandoned request (a cancelled or
// timed-out ctx) stops evaluating and returns ctx.Err(). This is the
// entry point network servers use to cancel work for clients that hung
// up; context.Background() behaves exactly like Eval.
func (db *DB) EvalCtx(ctx context.Context, p *Path) ([]NodeID, error) {
	return query.EvalSnapshotCtx(ctx, p, db.cur.Load())
}

// Count returns the exact result size from the current snapshot.
func (db *DB) Count(p *Path) int { return query.CountSnapshot(p, db.cur.Load()) }

// CountCtx is Count under a context.
func (db *DB) CountCtx(ctx context.Context, p *Path) (int, error) {
	return query.CountSnapshotCtx(ctx, p, db.cur.Load())
}

// Size returns the inode count of the current snapshot.
func (db *DB) Size() int { return db.cur.Load().Size() }

// SetExtentCodec switches the representation future snapshots freeze
// extents into and immediately publishes a re-frozen snapshot under the
// new codec. Readers holding an older snapshot keep the representation it
// was frozen with; the switch is otherwise transparent — results are
// bit-identical under every codec.
func (db *DB) SetExtentCodec(c ExtentCodec) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.idx.SnapshotCodec() == c {
		return nil
	}
	db.idx.SetSnapshotCodec(c)
	db.publish()
	return nil
}

// View runs fn against the current snapshot. There is nothing to hold:
// the snapshot is immutable, so fn may retain it, run long, or be called
// concurrently with writers at will.
func (db *DB) View(fn func(*Snapshot)) { fn(db.cur.Load()) }

// Validate checks graph and index invariants under the writer lock.
func (db *DB) Validate() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.idx.Graph().Validate(); err != nil {
		return err
	}
	return db.idx.Validate()
}

// ---- compaction ----

func (db *DB) compactLoop() {
	defer close(db.compactDone)
	for range db.compactReq {
		err := db.compactOnce()
		db.mu.Lock()
		db.compactErr = err
		db.mu.Unlock()
	}
}

// compactOnce writes the current snapshot to disk and truncates the
// journal — only below the *older* of the two retained snapshots, so
// that if the newest one turns out unreadable, Open can fall back to its
// predecessor and still replay a complete journal tail over it.
// Everything slow happens against immutable state: the lock is held only
// to pair the snapshot pointer with its journal coverage.
func (db *DB) compactOnce() error {
	db.mu.Lock()
	if db.failed != nil {
		// The live index holds a mutation the journal never recorded (see
		// journalFailed); snapshotting it would make a write the caller
		// saw fail durable.
		err := db.failed
		db.mu.Unlock()
		return err
	}
	snap := db.cur.Load()
	seq := db.appliedSeq.Load()
	db.mu.Unlock()
	if seq <= db.snapSeq.Load() {
		return nil
	}
	if err := db.writeSnapshot(seq, snap); err != nil {
		return err
	}
	keep := seq
	if seqs, _, err := listSnapshots(db.dir); err == nil && len(seqs) >= 2 {
		keep = seqs[len(seqs)-2]
	}
	return db.log.RemoveBelow(keep + 1)
}

// writeSnapshot persists snap as the snapshot covering journal seq,
// atomically (writeFileAtomic). Older snapshot files beyond one fallback
// are pruned.
func (db *DB) writeSnapshot(seq uint64, snap *Snapshot) error {
	err := writeFileAtomic(db.dir, snapName(seq), func(w io.Writer) error {
		if err := persist.SaveSnapshotCompressed(w, snap); err != nil {
			return fmt.Errorf("structix: writing snapshot: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	db.snapSeq.Store(seq)
	db.compactions.Add(1)
	// Keep the newest snapshot plus one fallback.
	if seqs, _, err := listSnapshots(db.dir); err == nil && len(seqs) > 2 {
		for _, s := range seqs[:len(seqs)-2] {
			os.Remove(filepath.Join(db.dir, snapName(s)))
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

// Close seals the store: writes stop, a final snapshot pins the current
// state (making the next Open a snapshot load with an empty tail), and
// the journal is fsynced and closed. Close is idempotent.
func (db *DB) Close() error {
	// A follower stops tailing first, so no replicated record races the
	// seal (Runner.Stop is idempotent and waits for the apply loop).
	if db.runner != nil {
		db.runner.Stop()
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()

	if db.compactReq != nil {
		close(db.compactReq)
		<-db.compactDone
	}
	if db.log == nil {
		return nil
	}
	err := db.compactOnce()
	if cerr := db.log.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// ---- observability ----

// DBStats is a point-in-time durability report for /v1/stats and the
// benchmarks.
type DBStats struct {
	// Durable is false for an in-memory DB (NewDB); everything below it
	// is zero there.
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
	// Compactions counts background + Close snapshots written.
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

// Stats returns current durability counters; safe alongside writes.
func (db *DB) Stats() DBStats {
	if db.log == nil {
		return DBStats{}
	}
	ls := db.log.Stats()
	st := DBStats{
		Durable:          true,
		Dir:              db.dir,
		Policy:           ls.Policy.String(),
		DurableSeq:       ls.DurableSeq,
		SnapshotSeq:      db.snapSeq.Load(),
		JournalSegments:  ls.Segments,
		JournalBytes:     ls.Bytes,
		JournalAppends:   ls.Appends,
		JournalSyncs:     ls.Syncs,
		Compactions:      db.compactions.Load(),
		ReplayedRecords:  db.replayed,
		TornBytesDropped: db.tornBytes,
	}
	db.mu.Lock()
	st.AppliedSeq = db.appliedSeq.Load()
	if db.compactErr != nil {
		st.CompactError = db.compactErr.Error()
	}
	if db.failed != nil {
		st.WriteError = db.failed.Error()
	}
	db.mu.Unlock()
	return st
}

// Dir returns the store directory ("" for an in-memory DB).
func (db *DB) Dir() string { return db.dir }
