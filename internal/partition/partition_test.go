package partition

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
)

func TestByLabel(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	p := ByLabel(g)
	// Labels: ROOT, a, e, b, c → 5 blocks.
	if p.NumBlocks() != 5 {
		t.Fatalf("NumBlocks = %d, want 5", p.NumBlocks())
	}
	if !IsLabelPure(g, p) {
		t.Errorf("ByLabel not label-pure")
	}
	blocks := p.Blocks()
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	if total != g.NumNodes() {
		t.Errorf("blocks cover %d nodes, want %d", total, g.NumNodes())
	}
}

func TestCoarsestStableFig2(t *testing.T) {
	g, u, v, ids := gtest.Fig2()
	p := CoarsestStable(g, ByLabel(g))
	// Figure 2(b): {r},{1},{2},{3,4},{5},{6,7},{8} — 7 blocks.
	if p.NumBlocks() != 7 {
		t.Fatalf("before insert: NumBlocks = %d, want 7\n%s", p.NumBlocks(), p.Fingerprint())
	}
	sameBlock := func(p *Partition, a, b string) bool {
		return p.Block(ids[a]) == p.Block(ids[b])
	}
	if !sameBlock(p, "3", "4") || !sameBlock(p, "6", "7") {
		t.Errorf("expected {3,4} and {6,7} together:\n%s", p.Fingerprint())
	}
	if sameBlock(p, "4", "5") || sameBlock(p, "7", "8") {
		t.Errorf("expected 5 and 8 separate before the update:\n%s", p.Fingerprint())
	}

	// Insert the Figure 2 dedge 2→4 and rebuild: Figure 2(f).
	if err := g.AddEdge(u, v, graph.IDRef); err != nil {
		t.Fatal(err)
	}
	q := CoarsestStable(g, ByLabel(g))
	if q.NumBlocks() != 7 {
		t.Fatalf("after insert: NumBlocks = %d, want 7\n%s", q.NumBlocks(), q.Fingerprint())
	}
	if !sameBlock(q, "4", "5") || !sameBlock(q, "7", "8") {
		t.Errorf("expected {4,5} and {7,8} together after insert:\n%s", q.Fingerprint())
	}
	if sameBlock(q, "3", "4") || sameBlock(q, "6", "7") {
		t.Errorf("expected 3 and 6 split off after insert:\n%s", q.Fingerprint())
	}
}

func TestCoarsestStableFig4(t *testing.T) {
	g, ids := gtest.Fig4()
	p := CoarsestStable(g, ByLabel(g))
	// Minimum 1-index is {r},{1,2}: 2 blocks.
	if p.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2\n%s", p.NumBlocks(), p.Fingerprint())
	}
	if p.Block(ids["1"]) != p.Block(ids["2"]) {
		t.Errorf("1 and 2 should be bisimilar")
	}
}

func TestCoarsestStableIsStableAndPure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		g := gtest.RandomCyclic(rng, 60, 40)
		p := CoarsestStable(g, ByLabel(g))
		if !IsLabelPure(g, p) {
			t.Fatalf("iter %d: not label-pure", i)
		}
		if !IsSelfStable(g, p) {
			t.Fatalf("iter %d: not self-stable", i)
		}
		if !IsRefinementOf(p, ByLabel(g)) {
			t.Fatalf("iter %d: not a refinement of the label partition", i)
		}
	}
}

func TestCoarsestStableMatchesNaive(t *testing.T) {
	check := func(name string, g *graph.Graph) *Partition {
		t.Helper()
		fast := CoarsestStable(g, ByLabel(g))
		slow := NaiveCoarsestStable(g, ByLabel(g))
		if !Equal(fast, slow) {
			t.Fatalf("%s: CoarsestStable disagrees with naive reference\nfast: %s\nslow: %s",
				name, fast.Fingerprint(), slow.Fingerprint())
		}
		return fast
	}
	g := graph.New()
	if got := check("empty graph", g).NumBlocks(); got != 0 {
		t.Errorf("empty graph: %d blocks, want 0", got)
	}
	g.AddRoot()
	if got := check("single node", g).NumBlocks(); got != 1 {
		t.Errorf("single node: %d blocks, want 1", got)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			g = gtest.RandomDAG(rng, 40, 25)
		} else {
			g = gtest.RandomCyclic(rng, 40, 25)
		}
		check(fmt.Sprintf("iter %d", i), g)
	}
}

// The bisimulation fixpoint is the coarsest stable refinement of the
// label partition: CoarsestStable must equal the naive reference and the
// k-bisimulation levels taken past their fixpoint.
func TestCoarsestStableMatchesBisimFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20; i++ {
		g := gtest.RandomCyclic(rng, 80, 60)
		a := CoarsestStable(g, ByLabel(g))
		if b := NaiveCoarsestStable(g, ByLabel(g)); !Equal(a, b) {
			t.Fatalf("iter %d: CoarsestStable disagrees with the naive reference", i)
		}
		if deep := KBisimLevels(g, 100)[100]; !samePartition(a, deep) {
			t.Fatalf("iter %d: CoarsestStable disagrees with A(100)", i)
		}
	}
}

func TestKBisimLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gtest.RandomCyclic(rng, 100, 60)
	const k = 6
	levels := KBisimLevels(g, k)
	if len(levels) != k+1 {
		t.Fatalf("got %d levels, want %d", len(levels), k+1)
	}
	if !Equal(levels[0], ByLabel(g)) {
		t.Errorf("A(0) != label partition")
	}
	for i := 1; i <= k; i++ {
		if !IsRefinementOf(levels[i], levels[i-1]) {
			t.Errorf("A(%d) is not a refinement of A(%d)", i, i-1)
		}
		if !IsStableWrt(g, levels[i], levels[i-1]) {
			t.Errorf("A(%d) is not stable wrt A(%d)", i, i-1)
		}
		if levels[i].NumBlocks() < levels[i-1].NumBlocks() {
			t.Errorf("A(%d) has fewer blocks than A(%d)", i, i-1)
		}
	}
}

// A(i) levels must be *minimum*: coarsest among refinements of A(i-1)
// stable wrt A(i-1). Cross-check each level, id for id, against the
// test-local one-level step.
func TestKBisimMatchesRefineWrt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 10; iter++ {
		g := gtest.RandomCyclic(rng, 50, 30)
		levels := KBisimLevels(g, 4)
		for i := 1; i <= 4; i++ {
			if want := refStep(g, levels[i-1]); !samePartition(levels[i], want) {
				t.Fatalf("iter %d level %d: KBisimLevels disagrees with the one-level step", iter, i)
			}
		}
	}
}

// Iterating the one-level step to its fixpoint gives the maximal
// bisimulation: deep KBisimLevels and the naive coarsest stable refinement
// must both reach it.
func TestBisimFixpointEqualsDeepKBisim(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gtest.RandomCyclic(rng, 60, 40)
	fix := ByLabel(g)
	for {
		next := refStep(g, fix)
		if next.NumBlocks() == fix.NumBlocks() {
			break
		}
		fix = next
	}
	if deep := KBisimLevels(g, 100); !samePartition(fix, deep[100]) {
		t.Errorf("bisimulation fixpoint != A(100)")
	}
	if !Equal(fix, NaiveCoarsestStable(g, ByLabel(g))) {
		t.Errorf("bisimulation fixpoint != NaiveCoarsestStable")
	}
}

func TestEqualAndRefinement(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("a")
	c := g.AddNode("b")
	_ = c

	p := NewPartition(g.MaxNodeID())
	p.SetBlock(a, 0)
	p.SetBlock(b, 0)
	p.SetBlock(c, 1)
	p.SetNumBlocks(2)

	q := NewPartition(g.MaxNodeID())
	q.SetBlock(a, 1)
	q.SetBlock(b, 1)
	q.SetBlock(c, 0)
	q.SetNumBlocks(2)

	r := NewPartition(g.MaxNodeID())
	r.SetBlock(a, 0)
	r.SetBlock(b, 1)
	r.SetBlock(c, 2)
	r.SetNumBlocks(3)

	if !Equal(p, q) {
		t.Errorf("Equal(p,q) = false, want true (renamed block ids)")
	}
	if Equal(p, r) {
		t.Errorf("Equal(p,r) = true, want false")
	}
	if !IsRefinementOf(r, p) {
		t.Errorf("r should refine p")
	}
	if IsRefinementOf(p, r) {
		t.Errorf("p should not refine r")
	}
	if !IsRefinementOf(p, p) {
		t.Errorf("p should refine itself")
	}
}

func TestPartitionWithDeadNodes(t *testing.T) {
	g := graph.New()
	r := g.AddRoot()
	a := g.AddNode("a")
	b := g.AddNode("a")
	if err := g.AddEdge(r, a, graph.Tree); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(r, b, graph.Tree); err != nil {
		t.Fatal(err)
	}
	g.RemoveNode(b)
	p := CoarsestStable(g, ByLabel(g))
	if p.Block(b) != NoBlock {
		t.Errorf("dead node assigned block %d", p.Block(b))
	}
	if p.NumBlocks() != 2 {
		t.Errorf("NumBlocks = %d, want 2", p.NumBlocks())
	}
}

// Property: for random graphs, the coarsest stable partition is no finer
// than necessary — merging any two same-label blocks breaks self-stability.
// This is the partition-level statement of index minimality.
func TestCoarsestStableIsCoarsest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 25, 15)
		p := CoarsestStable(g, ByLabel(g))
		blocks := p.Blocks()
		labelOf := func(blk []graph.NodeID) graph.LabelID { return g.Label(blk[0]) }
		for i := 0; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				if len(blocks[i]) == 0 || len(blocks[j]) == 0 {
					continue
				}
				if labelOf(blocks[i]) != labelOf(blocks[j]) {
					continue
				}
				merged := p.Clone()
				for _, w := range blocks[j] {
					merged.SetBlock(w, p.Block(blocks[i][0]))
				}
				if IsSelfStable(g, merged) {
					return false // a coarser stable partition exists
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Every k-bisimulation level is stable with respect to, and refines, the
// level before it — checked by IsStableWrt's marking pass — and equals the
// test-local one-level step on it.
func TestRefineWrtAgainstNaiveStability(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 10; i++ {
		g := gtest.RandomCyclic(rng, 40, 25)
		levels := KBisimLevels(g, 3)
		for l := 1; l <= 3; l++ {
			if !IsStableWrt(g, levels[l], levels[l-1]) {
				t.Fatalf("iter %d: A(%d) not stable wrt A(%d)", i, l, l-1)
			}
			if !IsRefinementOf(levels[l], levels[l-1]) {
				t.Fatalf("iter %d: A(%d) not a refinement of A(%d)", i, l, l-1)
			}
			if !Equal(levels[l], refStep(g, levels[l-1])) {
				t.Fatalf("iter %d: A(%d) differs from the one-level step", i, l)
			}
		}
	}
}

// refStep is the test-local reference for one refinement round: nodes
// grouped by their block in p and the sorted set of their parents'
// blocks, keyed through a map, numbered by smallest member.
func refStep(g *graph.Graph, p *Partition) *Partition {
	out := NewPartition(graph.NodeID(p.Len()))
	ids := map[string]int32{}
	for v := 0; v < p.Len(); v++ {
		if p.Block(graph.NodeID(v)) == NoBlock {
			continue
		}
		parents := map[int32]bool{}
		g.EachPred(graph.NodeID(v), func(u graph.NodeID, _ graph.EdgeKind) {
			if b := p.Block(u); b != NoBlock {
				parents[b] = true
			}
		})
		set := make([]int, 0, len(parents))
		for b := range parents {
			set = append(set, int(b))
		}
		sort.Ints(set)
		key := fmt.Sprint(p.Block(graph.NodeID(v)), set)
		id, ok := ids[key]
		if !ok {
			id = int32(len(ids))
			ids[key] = id
		}
		out.SetBlock(graph.NodeID(v), id)
	}
	out.SetNumBlocks(len(ids))
	return out
}

// samePartition reports whether p and q assign every node the same block
// id: the engine's numbering, not just its grouping.
func samePartition(p, q *Partition) bool {
	if p.Len() != q.Len() || p.NumBlocks() != q.NumBlocks() {
		return false
	}
	for v := 0; v < p.Len(); v++ {
		if p.Block(graph.NodeID(v)) != q.Block(graph.NodeID(v)) {
			return false
		}
	}
	return true
}

// benchRung is one construction benchmark input. Its graph is generated
// on first use and kept for the rest of the process, so a -bench filter
// that skips the rung never builds it.
type benchRung struct {
	name string
	long bool // skipped under -short
	gen  func() *graph.Graph
	once sync.Once
	g    *graph.Graph
}

// benchRungs are the construction benchmarks' inputs: a random cyclic
// graph and the XMark ladder, xmark-d8 and xmark-f1, f2, f4 and f8 (the
// f rungs skipped under -short).
var benchRungs = []*benchRung{
	{name: "cyclic5k", gen: func() *graph.Graph { return gtest.RandomCyclic(rand.New(rand.NewSource(1)), 5000, 3000) }},
	{name: "d8", gen: func() *graph.Graph { return datagen.XMark(datagen.DefaultXMark(8, 1, 1)) }},
	{name: "f1", long: true, gen: func() *graph.Graph { return datagen.XMark(datagen.XMarkFactor(1, 1, 1)) }},
	{name: "f2", long: true, gen: func() *graph.Graph { return datagen.XMark(datagen.XMarkFactor(2, 1, 1)) }},
	{name: "f4", long: true, gen: func() *graph.Graph { return datagen.XMark(datagen.XMarkFactor(4, 1, 1)) }},
	{name: "f8", long: true, gen: func() *graph.Graph { return datagen.XMark(datagen.XMarkFactor(8, 1, 1)) }},
}

// benchEachRung runs build once per iteration on every rung's graph.
func benchEachRung(b *testing.B, build func(g *graph.Graph)) {
	for _, r := range benchRungs {
		b.Run(r.name, func(b *testing.B) {
			if r.long && testing.Short() {
				b.Skip("xmark-f rungs skipped under -short")
			}
			r.once.Do(func() { r.g = r.gen() })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				build(r.g)
			}
		})
	}
}

func BenchmarkCoarsestStable(b *testing.B) {
	benchEachRung(b, func(g *graph.Graph) { CoarsestStable(g, ByLabel(g)) })
}

func BenchmarkKBisimLevelsK5(b *testing.B) {
	benchEachRung(b, func(g *graph.Graph) { KBisimLevels(g, 5) })
}
