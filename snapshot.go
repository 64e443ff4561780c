package structix

import (
	"context"
	"sync"
	"sync/atomic"

	"structix/internal/akindex"
	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/query"
)

// OneSnapshot is an immutable point-in-time view of a 1-index and its
// data graph. See internal/oneindex.Snapshot for the read API and the
// aliasing contract (extent and successor slices are shared, read-only).
type OneSnapshot = oneindex.Snapshot

// AkSnapshot is an immutable point-in-time view of the level-k index of
// an A(k) family and its data graph.
type AkSnapshot = akindex.Snapshot

// BatchError reports the operation that made ApplyBatch reject a batch
// atomically: OpIndex is the position in the ops slice, Op the operation,
// and Err the cause (ErrEdgeExists, ErrNoEdge, ErrSelfLoop, ErrDeadNode —
// retrievable with errors.Is).
type BatchError = graph.BatchError

// ErrDeadNode is the BatchError cause for operations naming a node that
// is not live in the graph.
var ErrDeadNode = graph.ErrDeadNode

// EvalOneSnapshot evaluates a path expression against a 1-index snapshot
// (exact, including predicates, with no access to mutable state).
func EvalOneSnapshot(p *Path, s *OneSnapshot) []NodeID { return query.EvalOneSnapshot(p, s) }

// CountOneSnapshot returns the exact result size of p from a 1-index
// snapshot.
func CountOneSnapshot(p *Path, s *OneSnapshot) int { return query.CountOneSnapshot(p, s) }

// EvalOneSnapshotCtx is EvalOneSnapshot under a context: cancellation is
// observed between extent unions, and evaluation stops with ctx.Err() and
// no partial result. Passing context.Background() (or nil) keeps the
// uncancellable behavior and allocation profile of EvalOneSnapshot.
func EvalOneSnapshotCtx(ctx context.Context, p *Path, s *OneSnapshot) ([]NodeID, error) {
	return query.EvalOneSnapshotCtx(ctx, p, s)
}

// CountOneSnapshotCtx is CountOneSnapshot under a context.
func CountOneSnapshotCtx(ctx context.Context, p *Path, s *OneSnapshot) (int, error) {
	return query.CountOneSnapshotCtx(ctx, p, s)
}

// EvalAkSnapshot evaluates a path expression against an A(k) snapshot
// with validation and predicate filtering over the snapshot's frozen
// graph: the exact result, with no access to mutable state.
func EvalAkSnapshot(p *Path, s *AkSnapshot) []NodeID { return query.EvalAkSnapshot(p, s) }

// EvalAkSnapshotCtx is EvalAkSnapshot under a context: cancellation is
// observed between extent unions and between validation candidates.
func EvalAkSnapshotCtx(ctx context.Context, p *Path, s *AkSnapshot) ([]NodeID, error) {
	return query.EvalAkSnapshotCtx(ctx, p, s)
}

// CountAkSnapshotCtx is CountAkSnapshot under a context.
func CountAkSnapshotCtx(ctx context.Context, p *Path, s *AkSnapshot) (int, error) {
	return query.CountAkSnapshotCtx(ctx, p, s)
}

// CountAkSnapshot returns an upper bound on the result size of p from an
// A(k) snapshot.
func CountAkSnapshot(p *Path, s *AkSnapshot) int { return query.CountAkSnapshot(p, s) }

// SnapshotOneIndex serves a 1-index through epoch-based snapshots:
// maintenance operations run serialized behind a mutex and publish a new
// immutable snapshot with an atomic pointer swap, while Eval, Count, Size
// and View read the current snapshot with a single atomic load — readers
// never take a lock and never block on maintenance, at the cost of
// answering from the state as of the most recently completed operation.
//
// This is the availability upgrade over ConcurrentOneIndex: under the
// RWMutex wrapper a long merge phase stalls every reader; here readers
// keep answering from the previous epoch for the full duration of the
// write. Snapshot publication is copy-on-write — every write re-copies
// only the pages of the inodes and graph nodes it touched (recorded by
// the index's dirty set and the graph's change record), not the whole
// index.
//
// The wrapped index and graph must not be touched directly while the
// wrapper is in use.
type SnapshotOneIndex struct {
	mu  sync.Mutex // serializes writers
	idx *OneIndex
	cur atomic.Pointer[OneSnapshot]
}

// NewSnapshotOneIndex wraps an index for snapshot-isolated serving and
// publishes the initial snapshot.
func NewSnapshotOneIndex(idx *OneIndex) *SnapshotOneIndex {
	c := &SnapshotOneIndex{idx: idx}
	c.cur.Store(idx.Freeze(idx.Graph().Freeze()))
	return c
}

// publish publishes the successor of the current snapshot: the graph's
// own change record and the index's dirty set say what to re-copy, so
// every write kind costs what it touched. Callers hold c.mu.
func (c *SnapshotOneIndex) publish() {
	prev := c.cur.Load()
	c.cur.Store(c.idx.PatchSnapshot(prev, prev.Data().Rebuild(c.idx.Graph(), nil)))
}

// InsertEdge inserts a dedge and publishes the next snapshot.
func (c *SnapshotOneIndex) InsertEdge(u, v NodeID, kind EdgeKind) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.idx.InsertEdge(u, v, kind); err != nil {
		return err
	}
	c.publish()
	return nil
}

// DeleteEdge deletes a dedge and publishes the next snapshot.
func (c *SnapshotOneIndex) DeleteEdge(u, v NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.idx.DeleteEdge(u, v); err != nil {
		return err
	}
	c.publish()
	return nil
}

// ApplyBatch applies a batch of edge updates atomically and publishes one
// snapshot for the whole batch. A rejected batch (*BatchError) publishes
// nothing: readers never observe a partially applied batch, and the
// previous snapshot stays current.
func (c *SnapshotOneIndex) ApplyBatch(ops []EdgeOp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.idx.ApplyBatch(ops); err != nil {
		return err
	}
	c.publish()
	return nil
}

// AddSubgraph grafts a subgraph and publishes the next snapshot.
func (c *SnapshotOneIndex) AddSubgraph(sg *Subgraph) ([]NodeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids, err := c.idx.AddSubgraph(sg)
	if err != nil {
		return nil, err
	}
	c.publish()
	return ids, nil
}

// DeleteSubgraph removes a subtree and publishes the next snapshot.
func (c *SnapshotOneIndex) DeleteSubgraph(root NodeID, skipIDRef bool) (*Subgraph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sg, err := c.idx.DeleteSubgraph(root, skipIDRef)
	if err != nil {
		return nil, err
	}
	c.publish()
	return sg, nil
}

// InsertNode adds a node and publishes the next snapshot.
func (c *SnapshotOneIndex) InsertNode(label graph.LabelID, parent NodeID, kind EdgeKind) (NodeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, err := c.idx.InsertNode(label, parent, kind)
	if err != nil {
		return v, err
	}
	c.publish()
	return v, nil
}

// DeleteNode removes a node and publishes the next snapshot.
func (c *SnapshotOneIndex) DeleteNode(v NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.idx.DeleteNode(v); err != nil {
		return err
	}
	c.publish()
	return nil
}

// Update runs fn with exclusive access to the live index and publishes
// the next snapshot afterwards (the graph and the index record what fn
// touched).
func (c *SnapshotOneIndex) Update(fn func(*OneIndex) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := fn(c.idx)
	c.publish()
	return err
}

// Snapshot returns the current snapshot: one atomic load, never blocks.
// The snapshot remains valid (and frozen at its epoch) indefinitely.
func (c *SnapshotOneIndex) Snapshot() *OneSnapshot { return c.cur.Load() }

// Eval evaluates a path expression against the current snapshot without
// locking.
func (c *SnapshotOneIndex) Eval(p *Path) []NodeID {
	return query.EvalOneSnapshot(p, c.cur.Load())
}

// EvalCtx is Eval under a context: an abandoned request (a cancelled or
// timed-out ctx) stops evaluating and returns ctx.Err(). This is the
// entry point network servers use to cancel work for clients that hung
// up; context.Background() behaves exactly like Eval.
func (c *SnapshotOneIndex) EvalCtx(ctx context.Context, p *Path) ([]NodeID, error) {
	return query.EvalOneSnapshotCtx(ctx, p, c.cur.Load())
}

// Count returns the exact result size from the current snapshot without
// locking.
func (c *SnapshotOneIndex) Count(p *Path) int {
	return query.CountOneSnapshot(p, c.cur.Load())
}

// CountCtx is Count under a context.
func (c *SnapshotOneIndex) CountCtx(ctx context.Context, p *Path) (int, error) {
	return query.CountOneSnapshotCtx(ctx, p, c.cur.Load())
}

// Size returns the inode count of the current snapshot without locking.
func (c *SnapshotOneIndex) Size() int { return c.cur.Load().Size() }

// View runs fn against the current snapshot. Unlike the RWMutex wrapper's
// View there is nothing to hold: the snapshot is immutable, so fn may
// retain it, run long, or be called concurrently with writers at will.
func (c *SnapshotOneIndex) View(fn func(*OneSnapshot)) { fn(c.cur.Load()) }

// SnapshotAkIndex is the A(k)-family counterpart of SnapshotOneIndex:
// serialized maintenance publishing immutable level-k snapshots, lock-free
// readers (including the validation and predicate passes, which run
// against the snapshot's frozen graph).
type SnapshotAkIndex struct {
	mu  sync.Mutex // serializes writers
	idx *AkIndex
	cur atomic.Pointer[AkSnapshot]
}

// NewSnapshotAkIndex wraps an A(k) family for snapshot-isolated serving
// and publishes the initial snapshot.
func NewSnapshotAkIndex(idx *AkIndex) *SnapshotAkIndex {
	c := &SnapshotAkIndex{idx: idx}
	c.cur.Store(idx.Freeze(idx.Graph().Freeze()))
	return c
}

func (c *SnapshotAkIndex) publish() {
	prev := c.cur.Load()
	c.cur.Store(c.idx.PatchSnapshot(prev, prev.Data().Rebuild(c.idx.Graph(), nil)))
}

// InsertEdge inserts a dedge and publishes the next snapshot.
func (c *SnapshotAkIndex) InsertEdge(u, v NodeID, kind EdgeKind) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.idx.InsertEdge(u, v, kind); err != nil {
		return err
	}
	c.publish()
	return nil
}

// DeleteEdge deletes a dedge and publishes the next snapshot.
func (c *SnapshotAkIndex) DeleteEdge(u, v NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.idx.DeleteEdge(u, v); err != nil {
		return err
	}
	c.publish()
	return nil
}

// ApplyBatch applies a batch atomically and publishes one snapshot for
// the whole batch; a rejected batch publishes nothing.
func (c *SnapshotAkIndex) ApplyBatch(ops []EdgeOp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.idx.ApplyBatch(ops); err != nil {
		return err
	}
	c.publish()
	return nil
}

// AddSubgraph grafts a subgraph and publishes the next snapshot.
func (c *SnapshotAkIndex) AddSubgraph(sg *Subgraph) ([]NodeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids, err := c.idx.AddSubgraph(sg)
	if err != nil {
		return nil, err
	}
	c.publish()
	return ids, nil
}

// DeleteSubgraph removes a subtree and publishes the next snapshot.
func (c *SnapshotAkIndex) DeleteSubgraph(root NodeID, skipIDRef bool) (*Subgraph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sg, err := c.idx.DeleteSubgraph(root, skipIDRef)
	if err != nil {
		return nil, err
	}
	c.publish()
	return sg, nil
}

// InsertNode adds a node and publishes the next snapshot.
func (c *SnapshotAkIndex) InsertNode(label graph.LabelID, parent NodeID, kind EdgeKind) (NodeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, err := c.idx.InsertNode(label, parent, kind)
	if err != nil {
		return v, err
	}
	c.publish()
	return v, nil
}

// DeleteNode removes a node and publishes the next snapshot.
func (c *SnapshotAkIndex) DeleteNode(v NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.idx.DeleteNode(v); err != nil {
		return err
	}
	c.publish()
	return nil
}

// Update runs fn with exclusive access to the live family and publishes
// the next snapshot afterwards.
func (c *SnapshotAkIndex) Update(fn func(*AkIndex) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := fn(c.idx)
	c.publish()
	return err
}

// Snapshot returns the current snapshot: one atomic load, never blocks.
func (c *SnapshotAkIndex) Snapshot() *AkSnapshot { return c.cur.Load() }

// Eval evaluates with validation against the current snapshot without
// locking.
func (c *SnapshotAkIndex) Eval(p *Path) []NodeID {
	return query.EvalAkSnapshot(p, c.cur.Load())
}

// EvalCtx is Eval under a context: cancellation stops evaluation (between
// extent unions and validation candidates) with ctx.Err().
func (c *SnapshotAkIndex) EvalCtx(ctx context.Context, p *Path) ([]NodeID, error) {
	return query.EvalAkSnapshotCtx(ctx, p, c.cur.Load())
}

// Count returns an upper bound on the result size from the current
// snapshot without locking.
func (c *SnapshotAkIndex) Count(p *Path) int {
	return query.CountAkSnapshot(p, c.cur.Load())
}

// CountCtx is Count under a context.
func (c *SnapshotAkIndex) CountCtx(ctx context.Context, p *Path) (int, error) {
	return query.CountAkSnapshotCtx(ctx, p, c.cur.Load())
}

// Size returns the level-k inode count of the current snapshot without
// locking.
func (c *SnapshotAkIndex) Size() int { return c.cur.Load().Size() }

// View runs fn against the current immutable snapshot; fn may retain it.
func (c *SnapshotAkIndex) View(fn func(*AkSnapshot)) { fn(c.cur.Load()) }
