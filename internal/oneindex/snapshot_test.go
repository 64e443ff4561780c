package oneindex

import (
	"errors"
	"math/rand"
	"testing"

	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/partition"
)

// assertSnapshotMatches checks that a snapshot's visible state equals the
// live index's, inode by inode.
func assertSnapshotMatches(t *testing.T, s *Snapshot, x *Index) {
	t.Helper()
	if s.Size() != x.Size() {
		t.Fatalf("size: snapshot %d, index %d", s.Size(), x.Size())
	}
	g := x.Graph()
	wantRoot := NoINode
	if g.Root() != graph.InvalidNode {
		wantRoot = x.INodeOf(g.Root())
	}
	if s.RootINode() != wantRoot {
		t.Fatalf("root inode: snapshot %d, index %d", s.RootINode(), wantRoot)
	}
	live := 0
	x.EachINode(func(I INodeID) {
		live++
		if !s.Live(I) {
			t.Fatalf("inode %d live in index, dead in snapshot", I)
		}
		if got, want := s.LabelName(I), g.Labels().Name(x.Label(I)); got != want {
			t.Fatalf("inode %d label: snapshot %q, index %q", I, got, want)
		}
		if got, want := s.Extent(I), x.Extent(I); !equalNodeIDs(got, want) {
			t.Fatalf("inode %d extent: snapshot %v, index %v", I, got, want)
		}
		if got, want := s.ISucc(I), x.ISucc(I); !equalINodeIDs(got, want) {
			t.Fatalf("inode %d isucc: snapshot %v, index %v", I, got, want)
		}
	})
	// No extra live slots in the snapshot.
	extra := 0
	for i := 0; i < s.Slots(); i++ {
		if s.Live(INodeID(i)) {
			extra++
		}
	}
	if extra != live {
		t.Fatalf("snapshot has %d live slots, index %d", extra, live)
	}
}

func equalNodeIDs(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalINodeIDs(a, b []INodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotPatchMatchesFreeze runs randomized batches against one
// index and checks after each that an incrementally patched snapshot is
// indistinguishable from a from-scratch freeze and from the live index.
func TestSnapshotPatchMatchesFreeze(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 40, 25)
		x := Build(g)
		snap := x.Freeze(g.Freeze())
		assertSnapshotMatches(t, snap, x)
		sim := g.Clone()
		for round := 0; round < 6; round++ {
			ops := gtest.RandomOpBatch(rng, sim, 8, false)
			if err := x.ApplyBatch(ops); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			snap = x.PatchSnapshot(snap, g.Freeze())
			assertSnapshotMatches(t, snap, x)
		}
	}
}

// TestSnapshotIsolation checks that a snapshot keeps serving the old state
// while the live index moves on, including across structural operations.
func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gtest.RandomDAG(rng, 30, 15)
	x := Build(g)
	snap := x.Freeze(g.Freeze())
	oldSize := snap.Size()
	oldExtents := make(map[INodeID][]graph.NodeID)
	x.EachINode(func(I INodeID) { oldExtents[I] = snap.Extent(I) })

	v, err := x.InsertNode(g.Labels().Intern("fresh"), g.Root(), graph.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.DeleteNode(v); err != nil {
		t.Fatal(err)
	}
	sim := g.Clone()
	if err := x.ApplyBatch(gtest.RandomOpBatch(rng, sim, 12, false)); err != nil {
		t.Fatal(err)
	}
	if snap.Size() != oldSize {
		t.Fatalf("snapshot size changed under maintenance: %d -> %d", oldSize, snap.Size())
	}
	for I, want := range oldExtents {
		if !equalNodeIDs(snap.Extent(I), want) {
			t.Fatalf("snapshot extent of inode %d changed under maintenance", I)
		}
	}
	// And a patched successor reflects the new state.
	snap2 := x.PatchSnapshot(snap, g.Freeze())
	assertSnapshotMatches(t, snap2, x)
}

// TestBatchAtomicRejection checks the atomic ApplyBatch contract: a batch
// with any bad operation leaves graph and index byte-identical, and a
// rejected batch followed by a valid one behaves exactly like the valid
// one alone.
func TestBatchAtomicRejection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gtest.RandomDAG(rng, 25, 12)
	x := Build(g)

	gRef := g.Clone()
	ref := Build(gRef)

	nodes := g.Nodes()
	u, v := nodes[1], nodes[2]
	var present [2]graph.NodeID
	found := false
	g.EachEdge(func(a, b graph.NodeID, _ graph.EdgeKind) {
		if !found {
			present = [2]graph.NodeID{a, b}
			found = true
		}
	})
	if !found {
		t.Fatal("no edges in test graph")
	}

	bad := [][]graph.EdgeOp{
		// Duplicate insert of a present edge.
		{graph.InsertOp(present[0], present[1], graph.Tree)},
		// Valid prefix, then a delete of a missing edge.
		{graph.DeleteOp(present[0], present[1]), graph.InsertOp(present[0], present[1], graph.Tree), graph.DeleteOp(u, u)},
		// Unknown node.
		{graph.InsertOp(u, graph.NodeID(9999), graph.IDRef)},
		// Insert-then-insert of the same new edge.
		{graph.InsertOp(v, u, graph.IDRef), graph.InsertOp(v, u, graph.IDRef)},
	}
	beforeEdges := g.NumEdges()
	beforePart := x.ToPartition()
	for i, ops := range bad {
		err := x.ApplyBatch(ops)
		if err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
		var be *graph.BatchError
		if !errors.As(err, &be) {
			t.Fatalf("bad batch %d: error %v is not a *graph.BatchError", i, err)
		}
		if g.NumEdges() != beforeEdges {
			t.Fatalf("bad batch %d mutated the graph", i)
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("bad batch %d left invalid index: %v", i, err)
		}
	}
	if !partition.Equal(beforePart, x.ToPartition()) {
		t.Fatal("rejected batches changed the index partition")
	}

	// Rejected batch followed by a valid batch ≡ the valid batch alone.
	sim := gRef.Clone()
	valid := gtest.RandomOpBatch(rng, sim, 10, true)
	if err := x.ApplyBatch(valid); err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
	if err := ref.ApplyBatch(valid); err != nil {
		t.Fatalf("valid batch on reference: %v", err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if !partition.Equal(x.ToPartition(), ref.ToPartition()) {
		t.Fatal("rejected batch leaked state into the following batch")
	}
	// Insert-then-delete-same-edge inside one batch must be accepted.
	if !g.HasEdge(u, v) {
		if err := x.ApplyBatch([]graph.EdgeOp{
			graph.InsertOp(u, v, graph.IDRef),
			graph.DeleteOp(u, v),
		}); err != nil {
			t.Fatalf("insert-then-delete batch rejected: %v", err)
		}
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
