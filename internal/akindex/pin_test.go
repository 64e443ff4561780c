package akindex

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
)

// pinnedStream drives steps random InsertEdge/DeleteEdge/InsertNode/
// DeleteNode calls through x and calls digest after each one. The draws
// depend on the graph alone, never on the index, so every implementation
// of the maintenance round sees the same stream.
func pinnedStream(t *testing.T, rng *rand.Rand, x *Index, steps int, digest func()) {
	t.Helper()
	g := x.Graph()
	for step := 0; step < steps; step++ {
		nodes := g.Nodes()
		var err error
		switch r := rng.Intn(10); {
		case r < 4:
			if u, v, ok := gtest.RandomNonEdge(rng, g); ok {
				err = x.InsertEdge(u, v, graph.IDRef)
			}
		case r < 7:
			v := nodes[rng.Intn(len(nodes))]
			if preds := g.Pred(v); len(preds) > 0 {
				err = x.DeleteEdge(preds[rng.Intn(len(preds))], v)
			}
		case r < 9:
			parent := nodes[rng.Intn(len(nodes))]
			if rng.Intn(4) == 0 {
				parent = graph.InvalidNode // a detached node
			}
			_, err = x.InsertNode(g.Label(nodes[rng.Intn(len(nodes))]), parent, graph.Tree)
		default:
			if v := nodes[rng.Intn(len(nodes))]; v != g.Root() {
				err = x.DeleteNode(v)
			}
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		digest()
	}
}

// TestMaintenanceStreamPinned pins, for fixed edge and node streams over
// cyclic graphs, the SHA-256 of every level's partition of an A(3) family
// (blocks renumbered by first member) after every step. The digests were
// recorded with the Figure 7 per-edge drivers the maintenance round
// replaced.
func TestMaintenanceStreamPinned(t *testing.T) {
	cases := []struct {
		name string
		g    func() *graph.Graph
		want string
	}{
		{"cyclic1", func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(1)), 80, 60) }, "47dc0ef414a67776109cf05677a57126e3fcbea9b5899ee366d3fcde48cc6b46"},
		{"cyclic2", func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(2)), 80, 60) }, "9a24db8d87fe38400fbc48a058667aa9e6468c9edd56a684a6b54e9285c755c0"},
		{"cyclic3", func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(3)), 120, 30) }, "c82720e818b1fd56d8e71f2251c81259a133d762cc570bd9cd5a72cb30e7a565"},
		{"xmark", func() *graph.Graph { return datagen.XMark(datagen.DefaultXMark(256, 0.5, 7)) }, "5982cc2fc723d2ff930122a539fe857ce2b4018514ff92a6db5e533255c419ef"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := Build(tc.g(), 3)
			h := sha256.New()
			var buf []byte
			pinnedStream(t, rand.New(rand.NewSource(int64(100+i))), x, 300, func() {
				buf = buf[:0]
				for l := 0; l <= x.K(); l++ {
					p := x.ToPartition(l)
					for v := graph.NodeID(0); v < graph.NodeID(p.Len()); v++ {
						buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Block(v)))
					}
				}
				h.Write(buf)
			})
			if err := x.Validate(); err != nil {
				t.Fatal(err)
			}
			if !x.IsMinimum() {
				t.Fatal("family not minimum after the stream")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, pinned %s", got, tc.want)
			}
		})
	}
}

// TestSubtreeStreamPinned pins, for fixed streams of edge batches, single
// edge updates, subtree cuts and re-grafts (gtest.SubtreeStream), the
// SHA-256 of every dnode's inode id at each level of an A(3) family and
// the split/merge counts after every step. The digests were recorded with
// per-family subtree drivers, before the op decomposition moved to
// internal/maint.
func TestSubtreeStreamPinned(t *testing.T) {
	cases := []struct {
		name string
		g    func() *graph.Graph
		want string
	}{
		{"cyclic1", func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(1)), 80, 60) }, "920ff70b7d86ba530076d244a1bd1790bc96988a6812f762b86bd5fb96c40a89"},
		{"cyclic2", func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(2)), 120, 30) }, "c5c6d600f9cff3d397a38662e5931c135e7d4b3bb6e6d3787b243359afa6a193"},
		{"xmark", func() *graph.Graph { return datagen.XMark(datagen.DefaultXMark(256, 0.5, 7)) }, "b514c72b456f164f5110d93563299444f5ce737f1452ec5d809648a76eaa7d3c"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := Build(tc.g(), 3)
			h := sha256.New()
			var buf []byte
			path := make([]INodeID, x.K()+1)
			err := gtest.SubtreeStream(rand.New(rand.NewSource(int64(200+i))), x, 200, func() {
				buf = buf[:0]
				for v, id := range x.inodeOf {
					if id == NoINode {
						buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
						continue
					}
					x.path(graph.NodeID(v), path)
					for _, p := range path {
						buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
					}
				}
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x.Stats.Splits))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x.Stats.Merges))
				h.Write(buf)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := x.Validate(); err != nil {
				t.Fatal(err)
			}
			if !x.IsMinimum() {
				t.Fatal("family not minimum after the stream")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, pinned %s", got, tc.want)
			}
		})
	}
}
