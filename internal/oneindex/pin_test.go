package oneindex

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
// cyclic graphs, the SHA-256 of the dnode→inode map and the split/merge
// counts after every step. No theorem fixes the 1-index's per-edge result
// on cyclic data, so the pin is what holds the maintenance round to the
// exact inode ids and work of the Figure 3 per-edge drivers it replaced:
// the digests were recorded with those drivers.
func TestMaintenanceStreamPinned(t *testing.T) {
	cases := []struct {
		name string
		g    func() *graph.Graph
		want string
	}{
		{"cyclic1", func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(1)), 80, 60) }, "8db54804bf1677b3ca57624da1e31d8724d58c35fb3ba5084db09619526544b0"},
		{"cyclic2", func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(2)), 80, 60) }, "08cd5f2cfca7b1e945d1ae7afb5b1ce5fec6ccfdf669ff4c4a7f85860bad4458"},
		{"cyclic3", func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(3)), 120, 30) }, "3f71791048d79f9cb8e9a5ffde9a7ea13b4dd2e45cc5c918487c71a1903fc1c5"},
		{"xmark", func() *graph.Graph { return datagen.XMark(datagen.DefaultXMark(256, 0.5, 7)) }, "c582b34b505a61fb0f215c5399070cc4c97d230328f8639083707115af7e04e5"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := Build(tc.g())
			h := sha256.New()
			var buf []byte
			pinnedStream(t, rand.New(rand.NewSource(int64(100+i))), x, 300, func() {
				buf = buf[:0]
				for _, id := range x.inodeOf {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
				}
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x.Stats.Splits))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x.Stats.Merges))
				h.Write(buf)
			})
			if err := x.Validate(); err != nil {
				t.Fatal(err)
			}
			if !x.IsMinimal() {
				t.Fatal("index not minimal after the stream")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, pinned %s", got, tc.want)
			}
		})
	}
}

// mixedWays sends each edge insertion, edge deletion and graft through the
// split-only (propagate) form one time in three, and each subtree cut
// through the DELETE-marker construction one time in three. Its draws come
// from a generator of its own, so the stream's draws stay the graph's.
type mixedWays struct {
	*Index
	rng *rand.Rand
}

func (m mixedWays) InsertEdge(u, v graph.NodeID, kind graph.EdgeKind) error {
	if m.rng.Intn(3) == 0 {
		return SplitOnly(m.Index).InsertEdge(u, v, kind)
	}
	return m.Index.InsertEdge(u, v, kind)
}

func (m mixedWays) DeleteEdge(u, v graph.NodeID) error {
	if m.rng.Intn(3) == 0 {
		return SplitOnly(m.Index).DeleteEdge(u, v)
	}
	return m.Index.DeleteEdge(u, v)
}

func (m mixedWays) AddSubgraph(sg *graph.Subgraph) ([]graph.NodeID, error) {
	if m.rng.Intn(3) == 0 {
		return SplitOnly(m.Index).AddSubgraph(sg)
	}
	return m.Index.AddSubgraph(sg)
}

func (m mixedWays) DeleteSubgraph(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error) {
	if m.rng.Intn(3) == 0 {
		return m.DeleteSubgraphViaMarker(root, skipIDRef)
	}
	return m.Index.DeleteSubgraph(root, skipIDRef)
}

// TestSubtreeStreamPinned pins, for fixed streams of edge batches, single
// edge updates, subtree cuts and re-grafts (gtest.SubtreeStream), the
// SHA-256 of the dnode→inode map and the split/merge counts after every
// step. The mixed cases also run the split-only forms and the
// DELETE-marker cut. The digests were recorded with per-family subtree
// drivers, before the op decomposition moved to internal/maint.
func TestSubtreeStreamPinned(t *testing.T) {
	cases := []struct {
		name  string
		g     func() *graph.Graph
		mixed bool
		want  string
	}{
		{"cyclic1", func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(1)), 80, 60) }, false, "ab497552d31b1b06884b0f7a8c67d421adb74c76e2bb19a71ac50d6b14ae9c5d"},
		{"cyclic2", func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(2)), 120, 30) }, false, "e3be44b49c7b853a78babf915db839463eb0c364f325f1bd0b4fe44e6bb68282"},
		{"xmark", func() *graph.Graph { return datagen.XMark(datagen.DefaultXMark(256, 0.5, 7)) }, false, "9e52796f251313aa3c06290a148266f26bd32aa0943a0ad4dc43a56bed2ee556"},
		{"cyclic1-mixed", func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(1)), 80, 60) }, true, "8dbe9a8d3b5833169d2b7682934a0c1df5790ef7235e7cdb8f02a11fb2f085d8"},
		{"xmark-mixed", func() *graph.Graph { return datagen.XMark(datagen.DefaultXMark(256, 0.5, 7)) }, true, "6d1591fd21f3f7e401bd03d3d789a8bbeb0bf837764ab0c8ea91e2b0408dece0"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := Build(tc.g())
			var w gtest.SubtreeWriter = x
			if tc.mixed {
				w = mixedWays{x, rand.New(rand.NewSource(int64(300 + i)))}
			}
			h := sha256.New()
			var buf []byte
			err := gtest.SubtreeStream(rand.New(rand.NewSource(int64(200+i))), w, 200, func() {
				buf = buf[:0]
				for _, id := range x.inodeOf {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
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
			if !tc.mixed && !x.IsMinimal() {
				t.Fatal("index not minimal after the stream")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, pinned %s", got, tc.want)
			}
		})
	}
}
