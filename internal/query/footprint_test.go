package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"structix/internal/akindex"
	"structix/internal/datagen"
	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/snap"
)

func overlaps(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// sortedDirty returns the patched snapshot's dirty-inode delta, ascending.
func sortedDirty(t *testing.T, s *snap.Snapshot) []int32 {
	t.Helper()
	changed, ok := s.Changed()
	if !ok {
		t.Fatal("patched snapshot lost its delta")
	}
	dirty := make([]int32, len(changed))
	for i, c := range changed {
		dirty[i] = int32(c)
	}
	slices.Sort(dirty)
	return dirty
}

// snapshotIndex is what both index families offer a test that churns an
// index and publishes its snapshots.
type snapshotIndex interface {
	gtest.Maintained
	SetSnapshotCodec(extent.Codec)
	Freeze(*graph.Frozen) *snap.Snapshot
	PatchSnapshot(*snap.Snapshot, *graph.Frozen) *snap.Snapshot
}

func strictlyAscending(fp []int32) bool {
	for i := 1; i < len(fp); i++ {
		if fp[i-1] >= fp[i] {
			return false
		}
	}
	return true
}

// The contract the result cache's targeted invalidation rests on: when a
// publication's dirty-inode delta is disjoint from an evaluation's
// recorded footprint — the slots the walk expanded — the cached result is
// still exact on the patched snapshot. Checked for both index families
// over randomized DAG and cyclic graphs under both extent codecs, with
// every write kind gtest.Churner drives: edge batches, node scripts (leaf
// insertions, a value change, a leaf deletion) and subtree delete +
// re-graft. On the A(k) family an evaluation is precise exactly when no
// validation ran — validation reads the data graph, which no inode
// footprint covers — and only precise entries are held to the contract.
func TestFootprintInvalidationSound(t *testing.T) {
	type ent struct {
		c     *Compiled
		nodes []graph.NodeID
		fp    []int32
	}
	families := []struct {
		name  string
		k     int
		build func(*graph.Graph) snapshotIndex
	}{
		{"1-index", snap.Unbounded, func(g *graph.Graph) snapshotIndex { return oneindex.Build(g) }},
		{"A(3)", 3, func(g *graph.Graph) snapshotIndex { return akindex.Build(g, 3) }},
	}
	shapes := []struct {
		name string
		gen  func(*rand.Rand, int, int) *graph.Graph
	}{{"dag", gtest.RandomDAG}, {"cyclic", gtest.RandomCyclic}}
	for _, fam := range families {
		for _, shape := range shapes {
			for _, codec := range []extent.Codec{extent.Dense, extent.Compressed} {
				t.Run(fmt.Sprintf("%s/%s/%s", fam.name, shape.name, codec), func(t *testing.T) {
					survived, flushed, validated := 0, 0, 0
					kinds := map[string]int{}
					for seed := int64(0); seed < 20; seed++ {
						rng := rand.New(rand.NewSource(seed*13 + 1))
						one := fam.build(shape.gen(rng, 50, 35))
						one.SetSnapshotCodec(codec)
						data := one.Graph().Freeze()
						snap := one.Freeze(data)
						var sc Scratch

						cache := map[string]*ent{}
						fill := func() {
							for q := 0; q < 15; q++ {
								p := MustParse(randomExpr(rng))
								if _, ok := cache[p.String()]; ok {
									continue
								}
								c := MustCompile(p)
								nodes, fp, precise, err := c.EvalSnapshotFootprint(nil, &sc, snap)
								if want := !snap.Bounded() || !NeedsValidation(p, fam.k); err != nil || precise != want {
									t.Fatalf("seed %d %q: err %v precise %v, want %v", seed, p, err, precise, want)
								}
								if !equalIDs(nodes, EvalGraph(p, one.Graph())) {
									t.Fatalf("seed %d %q: %v, the graph says %v", seed, p, nodes, EvalGraph(p, one.Graph()))
								}
								if !strictlyAscending(fp) {
									t.Fatalf("seed %d %q: footprint not strictly ascending: %v", seed, p, fp)
								}
								if !precise {
									validated++
									continue
								}
								cache[p.String()] = &ent{c: c, nodes: nodes, fp: fp}
							}
						}
						fill()
						churn := &gtest.Churner{Rng: rng, X: one}
						for round := 0; round < 8; round++ {
							kind, err := churn.Step()
							if err != nil {
								t.Fatalf("seed %d round %d (%s): %v", seed, round, kind, err)
							}
							kinds[kind]++
							data = one.Graph().Freeze()
							snap = one.PatchSnapshot(snap, data)
							dirty := sortedDirty(t, snap)
							for key, e := range cache {
								if overlaps(dirty, e.fp) {
									// Invalidated: recompute the entry.
									e.nodes, e.fp, _, _ = e.c.EvalSnapshotFootprint(nil, &sc, snap)
									flushed++
									continue
								}
								// Disjoint dirty set: the stale entry must still be
								// exact, and its footprint unchanged (same walk).
								fresh, fp, _, _ := e.c.EvalSnapshotFootprint(nil, &sc, snap)
								if !equalIDs(e.nodes, fresh) {
									t.Fatalf("seed %d round %d (%s) %q: footprint %v disjoint from dirty %v but result changed: cached %v, fresh %v",
										seed, round, kind, key, e.fp, dirty, e.nodes, fresh)
								}
								if !slices.Equal(fp, e.fp) {
									t.Fatalf("seed %d round %d (%s) %q: footprint drifted without dirty overlap: %v -> %v",
										seed, round, kind, key, e.fp, fp)
								}
								survived++
							}
							fill()
						}
					}
					if survived == 0 || flushed == 0 || (validated > 0) != (fam.k != snap.Unbounded) {
						t.Errorf("weak coverage: survived %d, flushed %d, validated %d", survived, flushed, validated)
					}
					for _, kind := range []string{"edges", "script", "cut", "graft"} {
						if kinds[kind] == 0 {
							t.Errorf("no %q write was exercised (%v)", kind, kinds)
						}
					}
				})
			}
		}
	}
}

// The adversarial case for leaving label-only reads out of the footprint:
// a sibling the walk never expanded dies, and its slot is reborn under a
// different label beneath a parent whose successor list ends up the very
// same slots — all within one publication. The cached /p/z (empty before,
// one node after) shares no slot with the reborn sibling, so it must be
// caught through the parent: removing the sibling's in-edge dirtied it.
func TestFootprintCatchesRelabelledSibling(t *testing.T) {
	g := graph.New()
	add := func(label string, parent graph.NodeID) graph.NodeID {
		v := g.AddNode(label)
		if parent != graph.InvalidNode {
			if err := g.AddEdge(parent, v, graph.Tree); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	root := add("root", graph.InvalidNode)
	g.SetRoot(root)
	p := add("p", root)
	add("x", p)
	y := add("y", p)

	one := oneindex.Build(g)
	data := one.Graph().Freeze()
	snap := one.Freeze(data)
	c := MustCompile(MustParse("/p/z"))
	nodes, fp, precise, err := c.EvalSnapshotFootprint(nil, nil, snap)
	if err != nil || !precise || len(nodes) != 0 {
		t.Fatalf("before: nodes %v precise %v err %v", nodes, precise, err)
	}
	ip, iy := one.INodeOf(p), one.INodeOf(y)
	if _, in := slices.BinarySearch(fp, int32(iy)); in {
		t.Fatalf("the unexpanded sibling's slot %d is in the footprint %v", iy, fp)
	}
	succsBefore := slices.Clone(snap.ISucc(ip))

	if err := one.DeleteNode(y); err != nil {
		t.Fatal(err)
	}
	z, err := one.InsertNode(g.Labels().Intern("z"), p, graph.Tree)
	if err != nil {
		t.Fatal(err)
	}
	data = one.Graph().Freeze()
	snap = one.PatchSnapshot(snap, data)

	// The premises: same slot, new label, same successor list above it.
	if one.INodeOf(z) != iy || snap.LabelName(iy) != "z" {
		t.Fatalf("setup: z landed in slot %d (label %q), want the freed slot %d", one.INodeOf(z), snap.LabelName(iy), iy)
	}
	if !slices.Equal(snap.ISucc(ip), succsBefore) {
		t.Fatalf("setup: parent's successor list changed: %v -> %v", succsBefore, snap.ISucc(ip))
	}
	if fresh, _ := c.Eval(nil, nil, nil, snap); !equalIDs(fresh, []graph.NodeID{z}) {
		t.Fatalf("after: /p/z = %v, want [%d]", fresh, z)
	}
	if dirty := sortedDirty(t, snap); !overlaps(dirty, fp) {
		t.Fatalf("entry survives: dirty %v is disjoint from footprint %v, yet the result changed", dirty, fp)
	}
}

// The footprint holds what the walk expanded, not what it looked at: a
// child-axis query into one branch of the document records nothing of the
// sibling branches it only read a label from. (Before the footprint was
// narrowed, /site/regions/… recorded people and open_auctions and was
// invalidated by every person→open_auction edge.)
func TestFootprintExcludesUnexpandedSiblings(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(8, 1, 1))
	one := oneindex.Build(g)
	snap := one.Freeze(one.Graph().Freeze())
	c := MustCompile(MustParse("/site/regions/africa/item/name"))
	nodes, fp, precise, err := c.EvalSnapshotFootprint(nil, nil, snap)
	if err != nil || !precise || len(nodes) == 0 {
		t.Fatalf("nodes %d precise %v err %v", len(nodes), precise, err)
	}
	for _, slot := range fp {
		switch label := snap.LabelName(oneindex.INodeID(slot)); label {
		case "people", "person", "open_auctions", "open_auction":
			t.Errorf("footprint holds slot %d, a %q inode the walk never expanded", slot, label)
		}
	}
}
