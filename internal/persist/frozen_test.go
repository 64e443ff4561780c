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

// Build's breadth-first inode numbering is part of the saved state: a
// fresh index saved from its snapshot and loaded back (plain or gzip
// stream) rebuilds, through FromPartition, a snapshot equal to the
// original slot for slot — so every recovery and follower bootstrap
// serves the same walk-ordered layout as the store that saved it.
func TestSnapshotRoundTripKeepsBuildNumbering(t *testing.T) {
	graphs := []*graph.Graph{datagen.XMark(datagen.DefaultXMark(256, 1, 3))}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		graphs = append(graphs, gtest.RandomDAG(rng, 80, 50), gtest.RandomCyclic(rng, 80, 50))
	}
	for n, g := range graphs {
		// A stream stores each node's edges in one canonical order, so
		// load the graph once first: SnapshotDiff then compares the
		// frozen data too, not only the inodes.
		var gbuf bytes.Buffer
		if err := SaveDatabase(&gbuf, &Database{Graph: g}); err != nil {
			t.Fatal(err)
		}
		gdb, err := LoadDatabase(&gbuf)
		if err != nil {
			t.Fatal(err)
		}
		g = gdb.Graph
		x := oneindex.Build(g)
		want := x.Freeze(g.Freeze())
		if d := gtest.BreadthFirstDiff(want); d != "" {
			t.Fatalf("graph %d: built index not breadth-first: %s", n, d)
		}
		for _, save := range []func(io.Writer, *oneindex.Snapshot) error{SaveSnapshot, SaveSnapshotCompressed} {
			var buf bytes.Buffer
			if err := save(&buf, want); err != nil {
				t.Fatal(err)
			}
			db, err := LoadDatabaseAuto(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if d := gtest.SnapshotDiff(db.One.Freeze(db.Graph.Freeze()), want); d != "" {
				t.Fatalf("graph %d: loaded index differs: %s", n, d)
			}
		}
	}
}

// SaveDatabase writes a live 1-index under the numbering SaveSnapshot
// writes its snapshot under — live inodes in slot order — so the two
// streams are byte-identical, fresh and after churn, and a built index
// loads back from either still numbered breadth-first.
func TestSaveDatabaseKeepsBuildNumbering(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(64, 1, 3))
	x := oneindex.Build(g)
	c := gtest.Churner{Rng: rand.New(rand.NewSource(1)), X: x}
	for step := 0; step <= 50; step++ {
		var live, frozen bytes.Buffer
		if err := SaveDatabase(&live, &Database{Graph: g, One: x}); err != nil {
			t.Fatal(err)
		}
		if err := SaveSnapshot(&frozen, x.Freeze(g.Freeze())); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live.Bytes(), frozen.Bytes()) {
			t.Fatalf("step %d: SaveDatabase wrote %d bytes, SaveSnapshot %d, or they differ", step, live.Len(), frozen.Len())
		}
		if step == 0 {
			db, err := LoadDatabase(&live)
			if err != nil {
				t.Fatal(err)
			}
			if d := gtest.BreadthFirstDiff(db.One.Freeze(db.Graph.Freeze())); d != "" {
				t.Fatalf("loaded index not breadth-first: %s", d)
			}
		}
		if what, err := c.Step(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
	}
}
