package persist

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"structix/internal/akindex"
	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/partition"
)

// The frozen-view save must produce a stream LoadDatabase reads back to
// the same database as the live-structure save.
func TestSaveSnapshotEquivalent(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(256, 1, 3))
	x := oneindex.Build(g)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		if u, v, ok := gtest.RandomNonEdge(rng, g); ok {
			if err := x.InsertEdge(u, v, graph.IDRef); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Punch a hole in the id space so dead slots are exercised.
	victim := g.Nodes()[len(g.Nodes())/2]
	if _, err := x.DeleteSubgraph(victim, true); err != nil {
		t.Fatal(err)
	}

	snap := x.Freeze(g.Freeze())
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db.One == nil || db.Ak != nil {
		t.Fatalf("want exactly a 1-index, got One=%v Ak=%v", db.One != nil, db.Ak != nil)
	}
	if err := db.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := db.One.Validate(); err != nil {
		t.Fatal(err)
	}
	// Graph shape preserved exactly: NodeIDs, labels (by name), values,
	// edges, root.
	if db.Graph.NumNodes() != g.NumNodes() || db.Graph.Root() != g.Root() ||
		db.Graph.MaxNodeID() != g.MaxNodeID() {
		t.Fatalf("graph shape changed: %d/%d nodes, root %d/%d",
			db.Graph.NumNodes(), g.NumNodes(), db.Graph.Root(), g.Root())
	}
	g.EachNode(func(v graph.NodeID) {
		if !db.Graph.Alive(v) {
			t.Fatalf("node %d lost", v)
		}
		if db.Graph.LabelName(v) != g.LabelName(v) || db.Graph.Value(v) != g.Value(v) {
			t.Fatalf("node %d attributes differ", v)
		}
	})
	e1, e2 := g.EdgeListAll(), db.Graph.EdgeListAll()
	if len(e1) != len(e2) {
		t.Fatalf("edge count changed: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge lists differ at %d", i)
		}
	}
	// The partition (the index, per §3) must match the live one.
	if !partition.Equal(x.ToPartition(), db.One.ToPartition()) {
		t.Errorf("partition changed across frozen save")
	}
}

func TestSaveSnapshotCompressedAuto(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(256, 1, 1))
	x := oneindex.Build(g)
	snap := x.Freeze(g.Freeze())
	var buf bytes.Buffer
	if err := SaveSnapshotCompressed(&buf, snap); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabaseAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if db.Graph.NumNodes() != g.NumNodes() || db.One == nil || db.One.Size() != x.Size() {
		t.Errorf("compressed frozen save round trip changed shape")
	}
}

// An A(k) snapshot is the same Go type as a 1-index snapshot, but the
// stream would declare its level-k partition a 1-index: both savers must
// refuse it and leave the writer untouched.
func TestSaveSnapshotRejectsBounded(t *testing.T) {
	g := gtest.RandomCyclic(rand.New(rand.NewSource(5)), 60, 30)
	snap := akindex.Build(g, 2).Freeze(g.Freeze())
	for name, save := range map[string]func(io.Writer, *oneindex.Snapshot) error{
		"plain": SaveSnapshot, "compressed": SaveSnapshotCompressed,
	} {
		var buf bytes.Buffer
		if err := save(&buf, snap); !errors.Is(err, ErrBoundedSnapshot) {
			t.Errorf("%s: saving an A(2) snapshot: %v, want ErrBoundedSnapshot", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written for a rejected snapshot", name, buf.Len())
		}
		if _, err := LoadDatabaseAuto(&buf); err == nil {
			t.Errorf("%s: the rejected stream loads", name)
		}
	}
}
