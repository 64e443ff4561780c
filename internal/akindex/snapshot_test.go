package akindex

import (
	"errors"
	"math/rand"
	"testing"

	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/partition"
)

// assertSnapshotMatches checks that a snapshot's visible level-k state
// equals the live family's, inode by inode.
func assertSnapshotMatches(t *testing.T, s *Snapshot, x *Index) {
	t.Helper()
	if s.Size() != x.Size() {
		t.Fatalf("size: snapshot %d, index %d", s.Size(), x.Size())
	}
	if s.K() != x.K() {
		t.Fatalf("k: snapshot %d, index %d", s.K(), x.K())
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
	x.EachINodeAt(x.K(), func(I INodeID) {
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
		if got, want := s.ISucc(I), x.IntraSucc(I); !equalINodeIDs(got, want) {
			t.Fatalf("inode %d isucc: snapshot %v, index %v", I, got, want)
		}
	})
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

// TestSnapshotPatchMatchesFreeze runs randomized batches against an A(k)
// family and checks after each that an incrementally patched snapshot is
// indistinguishable from the live level-k index.
func TestSnapshotPatchMatchesFreeze(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 35, 20)
		k := 1 + int(seed%3)
		x := Build(g, k)
		snap := x.Freeze(g.Freeze())
		assertSnapshotMatches(t, snap, x)
		sim := g.Clone()
		for round := 0; round < 5; round++ {
			ops := gtest.RandomOpBatch(rng, sim, 8, false)
			if err := x.ApplyBatch(ops); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			snap = x.PatchSnapshot(snap, g.Freeze())
			assertSnapshotMatches(t, snap, x)
		}
	}
}

// TestSnapshotSurvivesNodeOps checks patched snapshots across node
// insertion and deletion (which allocate and free whole refinement-tree
// chains, exercising slot reuse).
func TestSnapshotSurvivesNodeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gtest.RandomDAG(rng, 30, 15)
	x := Build(g, 2)
	snap := x.Freeze(g.Freeze())
	for i := 0; i < 4; i++ {
		v, err := x.InsertNode(g.Labels().Intern("fresh"), g.Root(), graph.Tree)
		if err != nil {
			t.Fatal(err)
		}
		snap = x.PatchSnapshot(snap, g.Freeze())
		assertSnapshotMatches(t, snap, x)
		if err := x.DeleteNode(v); err != nil {
			t.Fatal(err)
		}
		snap = x.PatchSnapshot(snap, g.Freeze())
		assertSnapshotMatches(t, snap, x)
	}
}

// TestBatchAtomicRejection checks the atomic ApplyBatch contract on the
// A(k) side: a rejected batch leaves graph and family untouched, and a
// rejected batch followed by a valid one behaves exactly like the valid
// one alone.
func TestBatchAtomicRejection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gtest.RandomDAG(rng, 25, 12)
	x := Build(g, 2)

	gRef := g.Clone()
	ref := Build(gRef, 2)

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
		{graph.InsertOp(present[0], present[1], graph.Tree)},
		{graph.DeleteOp(present[0], present[1]), graph.InsertOp(present[0], present[1], graph.Tree), graph.DeleteOp(u, v)},
		{graph.InsertOp(u, graph.NodeID(9999), graph.IDRef)},
		{graph.InsertOp(v, u, graph.IDRef), graph.InsertOp(v, u, graph.IDRef)},
	}
	beforeEdges := g.NumEdges()
	beforePart := x.ToPartition(x.K())
	for i, ops := range bad {
		if i == 1 && g.HasEdge(u, v) {
			continue // the "missing delete" op happens to exist for this seed
		}
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
			t.Fatalf("bad batch %d left invalid family: %v", i, err)
		}
	}
	if !partition.Equal(beforePart, x.ToPartition(x.K())) {
		t.Fatal("rejected batches changed the level-k partition")
	}

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
	if !partition.Equal(x.ToPartition(x.K()), ref.ToPartition(ref.K())) {
		t.Fatal("rejected batch leaked state into the following batch")
	}
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
