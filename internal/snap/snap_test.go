package snap_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"structix/internal/akindex"
	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/snap"
)

// family is what the tests need of a live index, whichever partition it
// keeps.
type family interface {
	gtest.Maintained
	Freeze(*graph.Frozen) *snap.Snapshot
	PatchSnapshot(*snap.Snapshot, *graph.Frozen) *snap.Snapshot
	SetSnapshotCodec(extent.Codec)
	Extent(snap.ID) []graph.NodeID
}

var families = []struct {
	name  string
	build func(*graph.Graph) family
}{
	{"1-index", func(g *graph.Graph) family { return oneindex.Build(g) }},
	{"A(2)", func(g *graph.Graph) family { return akindex.Build(g, 2) }},
}

// TestSnapshotHoldsNoRawExtentSlices pins the aliasing-hazard fix
// structurally: snapshot extents live behind extent.View (which exposes
// no mutators), never as raw graph.NodeID slices a caller could write
// into — nowhere in what a Snapshot holds, its walk records included.
func TestSnapshotHoldsNoRawExtentSlices(t *testing.T) {
	raw := reflect.TypeOf([]graph.NodeID{})
	opaque := map[reflect.Type]bool{reflect.TypeOf(extent.View{}): true, reflect.TypeOf(graph.Frozen{}): true}
	seen := map[reflect.Type]bool{}
	views := 0
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if ty == raw {
			t.Errorf("%s is %s: extents must be stored as extent.View", path, ty)
		}
		if opaque[ty] {
			views++
			return
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Slice, reflect.Array, reflect.Pointer:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("Snapshot", reflect.TypeOf(snap.Snapshot{}))
	if views < 2 {
		t.Error("the walk never reached an extent.View and the frozen graph; the structural guard is checking nothing")
	}
}

// TestSnapshotExtentIsACopy verifies the documented ownership split under
// both codecs: Extent hands out a fresh slice the caller may scribble on,
// while ExtentView reads the shared storage, which must be
// unaffected by such scribbling.
func TestSnapshotExtentIsACopy(t *testing.T) {
	for _, f := range families {
		for _, codec := range []extent.Codec{extent.Dense, extent.Compressed} {
			t.Run(fmt.Sprintf("%s/%s", f.name, codec), func(t *testing.T) {
				g := gtest.RandomDAG(rand.New(rand.NewSource(7)), 300, 150)
				x := f.build(g)
				x.SetSnapshotCodec(codec)
				s := x.Freeze(g.Freeze())
				live := 0
				for I := snap.ID(0); int(I) < s.Slots(); I++ {
					if !s.Live(I) {
						continue
					}
					live++
					want := x.Extent(I)
					got := s.Extent(I)
					if !slices.Equal(got, want) {
						t.Fatalf("inode %d: snapshot extent %v, index %v", I, got, want)
					}
					for i := range got {
						got[i] = -1 // caller owns the copy
					}
					if again := s.Extent(I); !slices.Equal(again, want) {
						t.Fatalf("inode %d: mutating Extent()'s result changed the snapshot: %v", I, again)
					}
					if app := s.ExtentView(I).AppendTo(nil); !slices.Equal(app, want) {
						t.Fatalf("inode %d: ExtentView diverged after caller mutation: %v", I, app)
					}
				}
				if live == 0 || live != s.Size() {
					t.Fatalf("%d live slots, Size() = %d", live, s.Size())
				}
			})
		}
	}
}

// TestPatchedChainEqualsFreeze publishes by patch after every write of a
// random mix — edge batches, node scripts, subtree deletes and re-grafts —
// and compares the patched snapshot and its frozen graph with a fresh
// Freeze on every accessor of every slot. The graphs span several pages
// of both slot spaces and the writes grow both.
func TestPatchedChainEqualsFreeze(t *testing.T) {
	gens := map[string]func(*rand.Rand, int, int) *graph.Graph{"dag": gtest.RandomDAG, "cyclic": gtest.RandomCyclic}
	for _, f := range families {
		for name, gen := range gens {
			for _, codec := range []extent.Codec{extent.Dense, extent.Compressed} {
				t.Run(fmt.Sprintf("%s/%s/%s", f.name, name, codec), func(t *testing.T) {
					rng := rand.New(rand.NewSource(11))
					g := gen(rng, 400, 150)
					// Bisimilar leaves: one extent big enough to block-encode.
					for i := 0; i < 48; i++ {
						if err := g.AddEdge(g.Root(), g.AddNode("leaf"), graph.Tree); err != nil {
							t.Fatal(err)
						}
					}
					x := f.build(g)
					x.SetSnapshotCodec(codec)
					s := x.Freeze(g.Freeze())
					slots, nodes := s.Slots(), s.Data().MaxNodeID()
					c := gtest.Churner{Rng: rng, X: x}
					for step := 0; step < 120; step++ {
						what, err := c.Step()
						if err != nil {
							t.Fatalf("step %d (%s): %v", step, what, err)
						}
						s = x.PatchSnapshot(s, s.Data().Rebuild(g, nil))
						if _, ok := s.Changed(); !ok {
							t.Fatalf("step %d (%s): published by full freeze", step, what)
						}
						fresh := x.Freeze(g.Clone().Freeze())
						if d := gtest.SnapshotDiff(s, fresh); d != "" {
							t.Fatalf("step %d (%s): patched chain differs from a fresh freeze: %s", step, what, d)
						}
					}
					enc := 0
					for i := 0; i < s.Slots(); i++ {
						if s.ExtentView(snap.ID(i)).IsCompressed() {
							enc++
						}
					}
					if (enc > 0) != (codec == extent.Compressed) {
						t.Fatalf("%d block-encoded extents under the %s codec", enc, codec)
					}
					if s.Slots() <= slots || s.Data().MaxNodeID() <= nodes {
						t.Fatalf("slot spaces did not grow: inodes %d->%d nodes %d->%d", slots, s.Slots(), nodes, s.Data().MaxNodeID())
					}
				})
			}
		}
	}
}
