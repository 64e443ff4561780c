package graph

import "fmt"

// EdgeOp is one edge update in a batch: an insertion (with a kind) or a
// deletion of the dedge U→V. Batches of EdgeOps are applied atomically with
// respect to index maintenance by the ApplyBatch entry points of the index
// packages: the split phase runs once over the union of affected nodes and
// the minimization (merge) phase once at the end. Atomicity also covers
// errors: the whole batch is validated against the graph before any
// operation is ingested, and an invalid batch is rejected without mutating
// graph or index (a *BatchError names the offending operation).
type EdgeOp struct {
	Insert bool
	U, V   NodeID
	Kind   EdgeKind // used by insertions; ignored by deletions
}

func (op EdgeOp) String() string {
	if op.Insert {
		return fmt.Sprintf("insert %d->%d (%s)", op.U, op.V, op.Kind)
	}
	return fmt.Sprintf("delete %d->%d", op.U, op.V)
}

// InsertOp builds an edge-insertion op.
func InsertOp(u, v NodeID, kind EdgeKind) EdgeOp {
	return EdgeOp{Insert: true, U: u, V: v, Kind: kind}
}

// DeleteOp builds an edge-deletion op.
func DeleteOp(u, v NodeID) EdgeOp {
	return EdgeOp{U: u, V: v}
}

// BatchError reports the first operation that makes a batch invalid. It is
// returned by ValidateOps (and therefore by the index ApplyBatch entry
// points) before anything has been mutated: the graph and every index over
// it are exactly as they were when the rejected batch was submitted.
type BatchError struct {
	OpIndex int    // position of the offending op within the batch
	Op      EdgeOp // the offending op itself
	Err     error  // the underlying cause (ErrEdgeExists, ErrNoEdge, ...)
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("batch op %d (%s): %v", e.OpIndex, e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/errors.As.
func (e *BatchError) Unwrap() error { return e.Err }

// ErrDeadNode is the cause recorded in a BatchError when an op names a
// node that is deleted or was never allocated.
var ErrDeadNode = fmt.Errorf("graph: no such live node")

// ErrRootNode is the cause when a deletion would remove the graph root
// and strand the nodes below it — a subtree holding the root, or the root
// node while other nodes are live: every query path starts at the root,
// and no write could re-attach anything to a rootless graph.
var ErrRootNode = fmt.Errorf("graph: the root cannot be deleted")

// ValidateOps checks a batch of edge operations against the graph without
// applying any of them: every op is simulated in order against the current
// edge set overlaid with the effects of the earlier ops, so a batch may
// insert an edge and delete it again (or delete and re-insert one), but a
// duplicate insertion, a deletion of an absent edge, a self-loop (unless
// allowed) or an op naming a dead node is rejected. The first violation is
// returned as a *BatchError; nil means applying the ops in order cannot
// fail.
func (g *Graph) ValidateOps(ops []EdgeOp) error {
	// overlay tracks edges the batch has (virtually) inserted (+1) or
	// deleted (−1) so far; absent keys defer to the graph itself.
	var overlay map[[2]NodeID]int8
	reject := func(i int, err error) error {
		return &BatchError{OpIndex: i, Op: ops[i], Err: err}
	}
	for i, op := range ops {
		if !g.Alive(op.U) || !g.Alive(op.V) {
			return reject(i, ErrDeadNode)
		}
		exists := g.HasEdge(op.U, op.V)
		if d, ok := overlay[[2]NodeID{op.U, op.V}]; ok {
			exists = d > 0
		}
		if op.Insert {
			if op.U == op.V && !g.allowLoops {
				return reject(i, ErrSelfLoop)
			}
			if exists {
				return reject(i, ErrEdgeExists)
			}
		} else if !exists {
			return reject(i, ErrNoEdge)
		}
		if i == len(ops)-1 {
			break // no later op reads the overlay
		}
		if overlay == nil {
			overlay = make(map[[2]NodeID]int8)
		}
		if op.Insert {
			overlay[[2]NodeID{op.U, op.V}] = 1
		} else {
			overlay[[2]NodeID{op.U, op.V}] = -1
		}
	}
	return nil
}
