package persist

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"structix/internal/akindex"
	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/partition"
)

func TestGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gtest.RandomCyclic(rng, 60, 40)
	g.SetValue(g.Nodes()[3], "hello")
	// Punch holes in the NodeID space.
	g.RemoveNode(g.Nodes()[10])
	g.RemoveNode(g.Nodes()[20])
	// A self-loop, which only a graph carrying the policy bit can reload.
	g.SetAllowSelfLoops(true)
	if err := g.AddEdge(g.Nodes()[5], g.Nodes()[5], graph.IDRef); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g2.AllowSelfLoops() {
		t.Fatal("self-loop policy lost across round trip")
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() ||
		g2.NumIDRefEdges() != g.NumIDRefEdges() || g2.Root() != g.Root() {
		t.Fatalf("counts differ after round trip")
	}
	// NodeIDs, labels, values and edges must be preserved exactly.
	g.EachNode(func(v graph.NodeID) {
		if !g2.Alive(v) {
			t.Fatalf("node %d lost", v)
		}
		if g2.LabelName(v) != g.LabelName(v) || g2.Value(v) != g.Value(v) {
			t.Fatalf("node %d attributes differ", v)
		}
	})
	e1, e2 := g.EdgeListAll(), g2.EdgeListAll()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge lists differ at %d", i)
		}
	}
}

// Every combination of persisted indexes must round-trip to the same
// partitions, validate, and keep working under maintenance afterwards.
func TestDatabaseRoundTrip(t *testing.T) {
	const k = 3
	xmark := func(*testing.T) *graph.Graph { return datagen.XMark(datagen.DefaultXMark(256, 1, 2)) }
	for _, tc := range []struct {
		name    string
		one, ak bool
		graph   func(*testing.T) *graph.Graph
		save    func(io.Writer, *Database) error
	}{
		{"one only", true, false, xmark, SaveDatabase},
		{"ak only", false, true, xmark, SaveDatabase},
		{"both", true, true, xmark, SaveDatabase},
		{"neither", false, false, xmark, SaveDatabase},
		// A graph that permits self-loops and has one: the policy bit must
		// travel with it, or the loader rejects the a→a edge.
		{"self loop", true, false, selfLoopGraph, SaveDatabase},
		// A stream laid out the way SaveDatabase wrote it before the
		// encoders were folded: label table in interner order.
		{"parent format", true, false, xmark, saveParentFormat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.graph(t)
			db := &Database{Graph: g}
			rng := rand.New(rand.NewSource(2))
			if tc.one {
				db.One = oneindex.Build(g)
				// Push the index away from the freshly-built state.
				for i := 0; i < 15; i++ {
					if u, v, ok := gtest.RandomNonEdge(rng, g); ok {
						if err := db.One.InsertEdge(u, v, graph.IDRef); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if tc.ak {
				db.Ak = akindex.Build(g, k)
			}
			var buf bytes.Buffer
			if err := tc.save(&buf, db); err != nil {
				t.Fatal(err)
			}
			db2, err := LoadDatabase(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if db2.Graph.AllowSelfLoops() != g.AllowSelfLoops() {
				t.Fatalf("loaded AllowSelfLoops = %v, saved %v", db2.Graph.AllowSelfLoops(), g.AllowSelfLoops())
			}
			if (db2.One != nil) != tc.one || (db2.Ak != nil) != tc.ak {
				t.Fatalf("loaded one=%v ak=%v, saved one=%v ak=%v", db2.One != nil, db2.Ak != nil, tc.one, tc.ak)
			}
			if db2.Graph.NumNodes() != g.NumNodes() || db2.Graph.NumEdges() != g.NumEdges() {
				t.Fatalf("graph changed across round trip")
			}
			u, v, ok := gtest.RandomNonEdge(rng, db2.Graph)
			if !ok {
				t.Fatal("no non-edge to insert")
			}
			if tc.one {
				if err := db2.One.Validate(); err != nil {
					t.Fatalf("loaded index invalid: %v", err)
				}
				if !partition.Equal(db.One.ToPartition(), db2.One.ToPartition()) {
					t.Errorf("partition changed across round trip")
				}
			}
			if tc.ak {
				if err := db2.Ak.Validate(); err != nil {
					t.Fatalf("loaded A(k) invalid: %v", err)
				}
				for l := 0; l <= k; l++ {
					if !partition.Equal(db.Ak.ToPartition(l), db2.Ak.ToPartition(l)) {
						t.Errorf("level %d changed across round trip", l)
					}
				}
				if !db2.Ak.IsMinimum() {
					t.Errorf("loaded family not minimum")
				}
			}
			// The loaded indexes must keep working under maintenance; in the
			// both row they share db2.Graph, so only the 1-index takes it.
			switch {
			case tc.one:
				if err := db2.One.InsertEdge(u, v, graph.IDRef); err != nil {
					t.Fatal(err)
				}
				if err := db2.One.Validate(); err != nil {
					t.Fatal(err)
				}
			case tc.ak:
				if err := db2.Ak.InsertEdge(u, v, graph.IDRef); err != nil {
					t.Fatal(err)
				}
				if !db2.Ak.IsMinimum() {
					t.Errorf("loaded family lost Theorem 2 after update")
				}
			}
		})
	}
}

func TestDatabaseWithoutIndexes(t *testing.T) {
	g := graph.New()
	g.AddRoot()
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, &Database{Graph: g}); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db.One != nil || db.Ak != nil {
		t.Errorf("phantom indexes loaded")
	}
}

func TestCompressedRoundTripAndAuto(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(512, 1, 2))
	db := &Database{Graph: g, One: oneindex.Build(g)}
	var plain, packed bytes.Buffer
	if err := SaveDatabase(&plain, db); err != nil {
		t.Fatal(err)
	}
	if err := SaveDatabaseCompressed(&packed, db); err != nil {
		t.Fatal(err)
	}
	if packed.Len() >= plain.Len() {
		t.Errorf("compression did not shrink: %d vs %d", packed.Len(), plain.Len())
	}
	for _, src := range []*bytes.Buffer{&plain, &packed} {
		db2, err := LoadDatabaseAuto(bytes.NewReader(src.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if db2.Graph.NumNodes() != g.NumNodes() || db2.One.Size() != db.One.Size() {
			t.Errorf("auto round trip changed shape")
		}
	}
	if _, err := loadDatabaseCompressed(bytes.NewReader(plain.Bytes())); err == nil {
		t.Errorf("plain stream accepted by compressed loader")
	}
	if _, err := LoadDatabaseAuto(bytes.NewReader(nil)); err == nil {
		t.Errorf("empty stream accepted")
	}
}

func TestTruncatedStreams(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(1024, 1, 1))
	db := &Database{Graph: g, One: oneindex.Build(g), Ak: akindex.Build(g, 2)}
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every truncation point must fail cleanly, never panic.
	for _, frac := range []float64{0.1, 0.5, 0.9, 0.99} {
		n := int(frac * float64(len(full)))
		if _, err := LoadDatabase(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncated stream (%d of %d bytes) accepted", n, len(full))
		}
	}
}

// selfLoopGraph is the XMark graph with the self-loop policy on and an
// a→a IDREF on one of its nodes.
func selfLoopGraph(t *testing.T) *graph.Graph {
	g := datagen.XMark(datagen.DefaultXMark(256, 1, 2))
	g.SetAllowSelfLoops(true)
	a := g.Nodes()[g.NumNodes()/2]
	if err := g.AddEdge(a, a, graph.IDRef); err != nil {
		t.Fatal(err)
	}
	return g
}

// spliceDatabase hand-writes a database stream that carries the graph gdto
// beside the 1-index partition of x — an index over some other graph, or a
// graph encoding the current writer would not produce.
func spliceDatabase(t *testing.T, gdto *graphDTO, x *oneindex.Index) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeV1(&buf, "database", true, false, gdto, partToDTO(x.ToPartition())); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// saveParentFormat splices db (graph + 1-index) the way SaveDatabase laid
// a stream out before the fold: every interned label, by LabelID, whether
// or not a node carries it.
func saveParentFormat(w io.Writer, db *Database) error {
	g := db.Graph
	gdto := graphToDTO(g)
	gdto.Labels = make([]string, g.Labels().Len())
	for i := range gdto.Labels {
		gdto.Labels[i] = g.Labels().Name(graph.LabelID(i))
	}
	g.EachNode(func(v graph.NodeID) { gdto.Nodes[v].Label = int32(g.Label(v)) })
	return encodeV1(w, "database", true, false, gdto, partToDTO(db.One.ToPartition()))
}

func TestCorruptPartition(t *testing.T) {
	g := graph.New()
	g.AddRoot()
	g.AddNode("a")
	// A partition whose liveness disagrees with the graph beside it: same
	// id space, one node dead.
	g2 := graph.New()
	g2.AddRoot()
	n := g2.AddNode("a")
	g2.RemoveNode(n)
	if _, err := LoadDatabase(spliceDatabase(t, graphToDTO(g2), oneindex.Build(g))); err == nil {
		t.Errorf("liveness mismatch accepted")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadGraph(strings.NewReader("garbage")); err == nil {
		t.Errorf("garbage accepted as graph")
	}
	// Wrong kind.
	g := graph.New()
	g.AddRoot()
	var buf bytes.Buffer
	if err := SaveGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDatabase(bytes.NewReader(buf.Bytes())); err == nil {
		t.Errorf("graph stream accepted as database")
	}
	// Partition for the wrong graph.
	other := graph.New()
	other.AddRoot()
	other.AddNode("extra")
	if _, err := LoadDatabase(spliceDatabase(t, graphToDTO(other), oneindex.Build(g))); err == nil {
		t.Errorf("mismatched graph accepted")
	}
}

// TestUnknownEdgeKind loads a graph stream whose one edge carries a kind
// that is neither tree nor idref — what a damaged or hostile snapshot (a
// follower bootstraps from one downloaded off its leader) can hold.
func TestUnknownEdgeKind(t *testing.T) {
	g := graph.New()
	root := g.AddRoot()
	if err := g.AddEdge(root, g.AddNode("a"), graph.Tree); err != nil {
		t.Fatal(err)
	}
	dto := graphToDTO(g)
	dto.Nodes[root].Succ[0].Kind = 7
	var buf bytes.Buffer
	if err := encodeV1(&buf, "graph", dto); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGraph(&buf); err == nil || !strings.Contains(err.Error(), "unknown kind 7") {
		t.Fatalf("edge kind 7 loaded: %v", err)
	}
}
