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
						s = x.PatchSnapshot(s, g.Freeze())
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

// TestPatchFromStalePredecessor hands PatchSnapshot a predecessor the dirty
// set is not relative to and checks the result against a fresh Freeze:
// such a prev must give a full freeze, never a patch missing the writes
// between prev and the latest publication. A reference Freeze taken
// between two links leaves the chain patchable.
func TestPatchFromStalePredecessor(t *testing.T) {
	cases := []struct {
		name    string
		patched bool // the last publication must be a patch
		run     func(x, other family, step func()) (prev *snap.Snapshot)
	}{
		{"older link", false, func(x, _ family, step func()) *snap.Snapshot {
			s0 := x.Freeze(x.Graph().Freeze())
			step()
			x.PatchSnapshot(s0, x.Graph().Freeze())
			step()
			return s0
		}},
		{"other index", false, func(x, other family, step func()) *snap.Snapshot {
			foreign := other.Freeze(other.Graph().Freeze())
			s0 := x.Freeze(x.Graph().Freeze())
			step()
			x.PatchSnapshot(s0, x.Graph().Freeze())
			step()
			return foreign
		}},
		{"codec switch", false, func(x, _ family, step func()) *snap.Snapshot {
			s0 := x.Freeze(x.Graph().Freeze())
			step()
			s1 := x.PatchSnapshot(s0, x.Graph().Freeze())
			x.SetSnapshotCodec(extent.Compressed)
			step()
			return s1
		}},
		{"reference freeze between links", true, func(x, _ family, step func()) *snap.Snapshot {
			s0 := x.Freeze(x.Graph().Freeze())
			step()
			s1 := x.PatchSnapshot(s0, x.Graph().Freeze())
			x.Freeze(x.Graph().Clone().Freeze())
			step()
			return s1
		}},
	}
	for _, f := range families {
		for _, tc := range cases {
			t.Run(f.name+"/"+tc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(5))
				g := gtest.RandomDAG(rng, 200, 80)
				other := f.build(g)
				x := f.build(g)
				step := func() {
					if err := x.ApplyBatch(gtest.RandomOpBatch(rng, g.Clone(), 6, false)); err != nil {
						t.Fatal(err)
					}
				}
				prev := tc.run(x, other, step)
				s := x.PatchSnapshot(prev, g.Freeze())
				if _, ok := s.Changed(); ok != tc.patched {
					t.Errorf("published as a patch: %v, want %v", ok, tc.patched)
				}
				if d := gtest.SnapshotDiff(s, x.Freeze(g.Clone().Freeze())); d != "" {
					t.Fatalf("differs from a fresh freeze: %s", d)
				}
			})
		}
	}
}

// FuzzPublish decodes a byte string into an interleaving of writes,
// publications from any earlier snapshot, reference freezes and codec
// switches over both index families, and checks every publication against
// a fresh Freeze. Right after a publication the dirty set is empty, so the
// check itself leaves the chain as it was.
func FuzzPublish(f *testing.F) {
	f.Add([]byte{0, 1, 0, 5, 2, 0, 9, 3, 0, 1})
	f.Add([]byte{0, 0, 1, 0, 0, 13, 0, 2, 1, 3, 0, 17})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 48 {
			prog = prog[:48]
		}
		for _, fam := range families {
			rng := rand.New(rand.NewSource(int64(len(prog))))
			g := gtest.RandomDAG(rng, 80, 30)
			x := fam.build(g)
			c := gtest.Churner{Rng: rng, X: x}
			chain := []*snap.Snapshot{x.Freeze(g.Freeze())}
			codecs := []extent.Codec{extent.Dense, extent.Compressed}
			for pc, b := range prog {
				switch b % 4 {
				case 0:
					if what, err := c.Step(); err != nil {
						t.Fatalf("%s: op %d (%s): %v", fam.name, pc, what, err)
					}
				case 1:
					s := x.PatchSnapshot(chain[int(b/4)%len(chain)], g.Freeze())
					if d := gtest.SnapshotDiff(s, x.Freeze(g.Clone().Freeze())); d != "" {
						t.Fatalf("%s: op %d: published snapshot differs from a fresh freeze: %s", fam.name, pc, d)
					}
					chain = append(chain, s)
				case 2:
					chain = append(chain, x.Freeze(g.Freeze()))
				case 3:
					x.SetSnapshotCodec(codecs[int(b/4)%2])
				}
			}
		}
	})
}
