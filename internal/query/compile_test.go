package query

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"structix/internal/akindex"
	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/snap"
)

func TestCompileBasics(t *testing.T) {
	c := MustCompile(MustParse("/a//b/*/a"))
	if c.Expr() != "/a//b/*/a" {
		t.Errorf("Expr = %q", c.Expr())
	}
	// Distinct non-wildcard labels only: {a, b} plus the OTHER symbol.
	if c.head.numSyms != 3 || c.head.next != nil {
		t.Errorf("numSyms = %d, next link %v; want 3 symbols in one link", c.head.numSyms, c.head.next)
	}
	nfa, dfa := c.States()
	if nfa != 5 {
		t.Errorf("nfa states = %d, want 5", nfa)
	}
	if dfa == 0 {
		t.Errorf("determinization declined for a 4-step expression: %s", c)
	}
	if !strings.Contains(c.String(), "dfa walk") {
		t.Errorf("String = %q, want dfa walk", c)
	}

	// Every path compiles: the empty one to zero links, a long one to a
	// chain of links of at most maxSteps steps each.
	for _, tc := range []struct {
		p     *Path
		links int
	}{
		{&Path{}, 0},
		{MustParse(strings.Repeat("/a", maxSteps)), 1},
		{MustParse(strings.Repeat("/a", maxSteps+1)), 2},
		{MustParse(strings.Repeat("//*", 3*maxSteps)), 3},
	} {
		c, err := Compile(tc.p)
		if err != nil || c == nil {
			t.Fatalf("Compile(%d steps) = %v, %v", tc.p.Len(), c, err)
		}
		links := 0
		for a := c.head; a != nil; a = a.next {
			links++
		}
		if nfa, _ := c.States(); links != tc.links || nfa != tc.p.Len()+links {
			t.Errorf("%d steps: %d links, %d nfa states; want %d links", tc.p.Len(), links, nfa, tc.links)
		}
	}
	// The empty path answers with the root, like the interpreter.
	g, _, _, _ := gtest.Fig2()
	s := oneindex.Build(g).Freeze(g.Freeze())
	want := []graph.NodeID{g.Root()}
	got, interp := MustCompile(&Path{}).EvalSnapshot(s), EvalGraph(&Path{}, g)
	if !equalIDs(got, want) || !equalIDs(interp, want) {
		t.Errorf("empty path: compiled %v, interpreter %v; want %v", got, interp, want)
	}
}

// forceNFA strips every link's DFA, so evaluation runs the NFA fixpoint.
func forceNFA(c *Compiled) {
	for a := c.head; a != nil; a = a.next {
		a.dfaNext, a.dfaAccept = nil, nil
	}
}

// The compiled automaton over the data graph must agree with the
// interpreter on every expression, including predicates.
func TestCompiledEvalSourceMatchesInterpreter(t *testing.T) {
	g := load(t)
	for _, expr := range []string{
		"/site/people/person", "//name", "//person//name", "/site/*/*",
		"//watch/auction/seller", "//auction//name", "//nonexistent",
		"/site/people/person[name='Alice']", "//person[watches/watch]/name",
		"//auction[name='lot']", "//person[name]",
	} {
		p := MustParse(expr)
		want := EvalGraph(p, g)
		got := MustCompile(p).EvalSource(g)
		if !equalIDs(got, want) {
			t.Errorf("%q: compiled %v != interpreter %v", expr, got, want)
		}
	}
}

func TestCompiledEvalSourceMatchesInterpreterRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 60, 40)
		for q := 0; q < 30; q++ {
			p := MustParse(randomExpr(rng))
			want := EvalGraph(p, g)
			got := MustCompile(p).EvalSource(g)
			if !equalIDs(got, want) {
				t.Fatalf("seed %d %q: compiled %v != interpreter %v", seed, p, got, want)
			}
		}
	}
}

// Compiled snapshot evaluation must be indistinguishable from the
// interpreter over the snapshot's frozen graph across randomized graphs,
// expressions, maintenance rounds, and both index families — and the
// NFA-fixpoint fallback must compute the same answers as the DFA product
// walk.
func TestCompiledSnapshotsMatchInterpreter(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 50, 35)
		one := oneindex.Build(g)
		k := 1 + int(seed%3)
		ak := akindex.Build(g.Clone(), k)

		oneSnap := one.Freeze(one.Graph().Freeze())
		akSnap := ak.Freeze(ak.Graph().Freeze())
		var sc Scratch
		var buf []graph.NodeID
		check := func(round int) {
			for q := 0; q < 12; q++ {
				p := MustParse(randomExpr(rng))
				c := MustCompile(p)
				wantOne := EvalGraph(p, oneSnap.Data())
				buf = c.EvalSnapshotInto(buf, &sc, oneSnap)
				if !equalIDs(buf, wantOne) {
					t.Fatalf("seed %d round %d %q: compiled one %v != interpreter %v", seed, round, p, buf, wantOne)
				}
				wantAk := EvalGraph(p, akSnap.Data())
				buf = c.EvalSnapshotInto(buf, &sc, akSnap)
				if !equalIDs(buf, wantAk) {
					t.Fatalf("seed %d round %d %q: compiled ak %v != interpreter %v", seed, round, p, buf, wantAk)
				}
				// Strip the DFA: the NFA bitmask fixpoint must agree.
				forceNFA(c)
				buf = c.EvalSnapshotInto(buf, &sc, oneSnap)
				if !equalIDs(buf, wantOne) {
					t.Fatalf("seed %d round %d %q: NFA-fallback one %v != interpreter %v", seed, round, p, buf, wantOne)
				}
				buf = c.EvalSnapshotInto(buf, &sc, akSnap)
				if !equalIDs(buf, wantAk) {
					t.Fatalf("seed %d round %d %q: NFA-fallback ak %v != interpreter %v", seed, round, p, buf, wantAk)
				}
			}
		}
		check(-1)
		simOne := one.Graph().Clone()
		simAk := ak.Graph().Clone()
		for round := 0; round < 3; round++ {
			if err := one.ApplyBatch(gtest.RandomOpBatch(rng, simOne, 8, false)); err != nil {
				t.Fatal(err)
			}
			if err := ak.ApplyBatch(gtest.RandomOpBatch(rng, simAk, 8, false)); err != nil {
				t.Fatal(err)
			}
			oneSnap = one.PatchSnapshot(oneSnap, one.Graph().Freeze())
			akSnap = ak.PatchSnapshot(akSnap, ak.Graph().Freeze())
			check(round)
		}
	}
}

// An IDRef edge may point back at the root, so the walk reaches the root
// slot as a successor and needs its label's symbol — which is resolved
// where the root is first touched, not by a successor's first-touch branch.
// The gtest generators never draw such an edge, so this test adds them, and
// evaluates every expression on one Scratch after a wide-alphabet program
// so that a stale symbol would be read, not a lucky zero.
func TestCompiledEdgeIntoRoot(t *testing.T) {
	wide := MustCompile(MustParse("/a/b/c/d/e/" + graph.RootLabel))
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 40, 25)
		nodes := g.Nodes()
		for i := 0; i < 3; i++ {
			if v := nodes[rng.Intn(len(nodes))]; v != g.Root() {
				_ = g.AddEdge(v, g.Root(), graph.IDRef)
			}
		}
		one := oneindex.Build(g.Clone())
		oneSnap := one.Freeze(one.Graph().Freeze())
		ak := akindex.Build(g.Clone(), 2)
		akSnap := ak.Freeze(ak.Graph().Freeze())

		exprs := []string{"//ROOT", "/*/ROOT", "//ROOT/*", "//ROOT//a", "/a/ROOT/a", "//b/ROOT"}
		for q := 0; q < 10; q++ {
			exprs = append(exprs, randomExpr(rng)+"/ROOT"+randomExpr(rng))
		}
		var sc Scratch
		for _, expr := range exprs {
			p := MustParse(expr)
			want := EvalGraph(p, g)
			c := MustCompile(p)
			if got := c.EvalSource(g); !equalIDs(got, want) {
				t.Errorf("seed %d %q: EvalSource %v != interpreter %v", seed, expr, got, want)
			}
			for _, mode := range []string{"DFA", "NFA"} {
				wide.EvalSnapshotInto(nil, &sc, oneSnap)
				got, _, _, err := c.EvalSnapshotFootprint(nil, &sc, oneSnap)
				if err != nil || !equalIDs(got, want) {
					t.Errorf("seed %d %q: %s one %v != interpreter %v (err %v)", seed, expr, mode, got, want, err)
				}
				wide.EvalSnapshotInto(nil, &sc, akSnap)
				if got := c.EvalSnapshotInto(nil, &sc, akSnap); !equalIDs(got, want) {
					t.Errorf("seed %d %q: %s ak %v != interpreter %v", seed, expr, mode, got, want)
				}
				forceNFA(c)
			}
		}
	}
}

// The footprint contract: every inode whose extent contributed to the
// result is in the footprint, the footprint is sorted, and precision is
// claimed exactly for predicate-free expressions.
func TestCompiledFootprint(t *testing.T) {
	g := load(t)
	one := oneindex.Build(g)
	snap := one.Freeze(one.Graph().Freeze())

	c := MustCompile(MustParse("//person/name"))
	nodes, fp, precise, err := c.EvalSnapshotFootprint(nil, nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !precise {
		t.Error("predicate-free expression reported imprecise")
	}
	if !equalIDs(nodes, EvalGraph(c.Path(), snap.Data())) {
		t.Errorf("footprint eval result diverges: %v", nodes)
	}
	if len(fp) == 0 {
		t.Fatal("empty footprint for a non-empty walk")
	}
	for i := 1; i < len(fp); i++ {
		if fp[i-1] >= fp[i] {
			t.Fatalf("footprint not sorted/unique: %v", fp)
		}
	}
	// Every accepting inode (its extent was read) must be in the footprint.
	inFp := func(s int32) bool {
		for _, x := range fp {
			if x == s {
				return true
			}
		}
		return false
	}
	for _, v := range nodes {
		slot := int32(one.INodeOf(v))
		if !inFp(slot) {
			t.Errorf("result node %d's inode %d missing from footprint %v", v, slot, fp)
		}
	}

	// Predicates read the data graph: the entry must declare itself
	// imprecise so the cache flushes it on every commit.
	cp := MustCompile(MustParse("//person[name='Alice']"))
	if _, _, precise, err := cp.EvalSnapshotFootprint(nil, nil, snap); err != nil || precise {
		t.Errorf("predicate expression reported precise (err %v)", err)
	}
}

// Warm compiled evaluation is allocation-free: with a reused Scratch and
// result buffer, the whole walk + extent union runs without allocating.
func TestCompiledEvalZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gtest.RandomCyclic(rng, 200, 120)
	one := oneindex.Build(g)
	snap := one.Freeze(one.Graph().Freeze())
	c := MustCompile(MustParse("//a//b"))

	var sc Scratch
	buf := make([]graph.NodeID, 0, g.NumNodes())
	buf = c.EvalSnapshotInto(buf, &sc, snap) // warm scratch and buffer
	if n := testing.AllocsPerRun(50, func() {
		buf = c.EvalSnapshotInto(buf, &sc, snap)
	}); n != 0 {
		t.Errorf("warm compiled evaluation allocates %.1f/op, want 0", n)
	}
}

// The walks are breadth-first, but nothing in their contract depends on
// the order: the accepting set and the footprint are sets. Against an
// order-free reference — the per-slot NFA state sets iterated to their
// fixpoint in plain slot order — both the DFA walk and the NFA fallback
// must return the interpreter's result and expand exactly the slots the
// fixpoint reaches, on freshly built (breadth-first numbered) indexes and
// on churned ones whose splits appended ids out of walk order.
// TestChainedPathsMatchGraph holds chained programs to the same reference.
func TestWalkOrderIndependent(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(*rand.Rand, int, int) *graph.Graph
	}{{"dag", gtest.RandomDAG}, {"cyclic", gtest.RandomCyclic}}
	for _, shape := range shapes {
		for _, codec := range []extent.Codec{extent.Dense, extent.Compressed} {
			t.Run(fmt.Sprintf("%s/%s", shape.name, codec), func(t *testing.T) {
				for seed := int64(0); seed < 20; seed++ {
					rng := rand.New(rand.NewSource(seed))
					one := oneindex.Build(shape.gen(rng, 50, 35))
					one.SetSnapshotCodec(codec)
					s := one.Freeze(one.Graph().Freeze())
					churn := gtest.Churner{Rng: rng, X: one}
					var sc Scratch
					for round := 0; round < 3; round++ {
						for q := 0; q < 10; q++ {
							p := MustParse(randomExpr(rng))
							want := EvalGraph(p, one.Graph())
							c := MustCompile(p)
							wantFp := fixpointFootprint(c, s)
							for _, mode := range []string{"DFA", "NFA"} {
								got, fp, _, err := c.EvalSnapshotFootprint(nil, &sc, s)
								if err != nil || !equalIDs(got, want) {
									t.Fatalf("seed %d round %d %q: %s walk %v, want %v (err %v)", seed, round, p, mode, got, want, err)
								}
								if !slices.Equal(fp, wantFp) {
									t.Fatalf("seed %d round %d %q: %s footprint %v, fixpoint %v", seed, round, p, mode, fp, wantFp)
								}
								forceNFA(c)
							}
						}
						for i := 0; i < 4; i++ {
							if _, err := churn.Step(); err != nil {
								t.Fatal(err)
							}
						}
						s = one.PatchSnapshot(s, one.Graph().Freeze())
					}
				}
			})
		}
	}
}

// fixpointFootprint is the order-free reference for a walk's footprint:
// per link, it iterates every slot's NFA state set, in ascending slot
// order, until nothing changes, starting from the previous link's
// accepting slots (the root, for the first), and returns the slots that
// held a non-empty set in any link — the root and every slot some path
// prefix of the expression reaches.
func fixpointFootprint(c *Compiled, s *snap.Snapshot) []int32 {
	root := s.RootINode()
	if root < 0 || c.head == nil {
		return nil
	}
	reached := make([]bool, s.Slots())
	seeds := []int{int(root)}
	for a := c.head; a != nil && len(seeds) > 0; a = a.next {
		set := make([]uint64, s.Slots())
		for _, i := range seeds {
			set[i] = 1
		}
		for changed := true; changed; {
			changed = false
			for i, m := range set {
				if m == 0 {
					continue
				}
				for _, j := range s.ISucc(snap.ID(i)) {
					if nm := a.step(m, a.symOf(s.LabelName(j))); nm&^set[j] != 0 {
						set[j] |= nm
						changed = true
					}
				}
			}
		}
		seeds = seeds[:0]
		for i, m := range set {
			reached[i] = reached[i] || m != 0
			if m&a.accept != 0 {
				seeds = append(seeds, i)
			}
		}
	}
	var fp []int32
	for i, r := range reached {
		if r {
			fp = append(fp, int32(i))
		}
	}
	return fp
}

// longExpr draws a 60–140-step expression — longer than one automaton
// link, often longer than two — with five in seven steps a wildcard and
// one in four a descendant step, so that on small cyclic graphs a fair
// share of the answers is non-empty.
func longExpr(rng *rand.Rand) string {
	labels := []string{"a", "b", "c", "d", "e"}
	var b strings.Builder
	for n := 60 + rng.Intn(81); n > 0; n-- {
		if rng.Intn(4) == 0 {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		if rng.Intn(7) < 5 {
			b.WriteString("*")
		} else {
			b.WriteString(labels[rng.Intn(len(labels))])
		}
	}
	return b.String()
}

// Chained programs — expressions over one link's maxSteps — must answer
// exactly what the interpreter answers over the snapshot's frozen graph,
// under the DFA walk and the forced NFA walk, on both index families and
// both extent codecs, over DAG and cyclic graphs, on fresh snapshots and
// along a PatchSnapshot chain; their footprint must be the order-free
// fixpoint's, and a cached answer whose footprint a publication leaves
// clean must still be exact on the patched snapshot.
func TestChainedPathsMatchGraph(t *testing.T) {
	type entry struct {
		c     *Compiled
		nodes []graph.NodeID
		fp    []int32
	}
	families := []struct {
		name  string
		build func(*graph.Graph) snapshotIndex
	}{
		{"1-index", func(g *graph.Graph) snapshotIndex { return oneindex.Build(g) }},
		{"A(2)", func(g *graph.Graph) snapshotIndex { return akindex.Build(g, 2) }},
	}
	shapes := []struct {
		name string
		gen  func(*rand.Rand, int, int) *graph.Graph
	}{{"dag", gtest.RandomDAG}, {"cyclic", gtest.RandomCyclic}}
	nonEmpty, checked, survived := 0, 0, 0
	for _, fam := range families {
		for _, shape := range shapes {
			for _, codec := range []extent.Codec{extent.Dense, extent.Compressed} {
				t.Run(fmt.Sprintf("%s/%s/%s", fam.name, shape.name, codec), func(t *testing.T) {
					for seed := int64(0); seed < 5; seed++ {
						rng := rand.New(rand.NewSource(seed))
						x := fam.build(shape.gen(rng, 40, 100))
						x.SetSnapshotCodec(codec)
						data := x.Graph().Freeze()
						s := x.Freeze(data)
						churn := gtest.Churner{Rng: rng, X: x}
						var sc Scratch
						var cached []entry
						for round := 0; round < 3; round++ {
							for q := 0; q < 4; q++ {
								p := MustParse(longExpr(rng))
								want := EvalGraph(p, data)
								c := MustCompile(p)
								if got := c.EvalSource(data); !equalIDs(got, want) {
									t.Fatalf("seed %d round %d %s: EvalSource %v, graph %v", seed, round, p, got, want)
								}
								wantFp := fixpointFootprint(c, s)
								for _, mode := range []string{"DFA", "NFA"} {
									got, fp, precise, err := c.EvalSnapshotFootprint(nil, &sc, s)
									if err != nil || !equalIDs(got, want) {
										t.Fatalf("seed %d round %d %s: %s walk %v, graph %v (err %v)", seed, round, p, mode, got, want, err)
									}
									if !slices.Equal(fp, wantFp) {
										t.Fatalf("seed %d round %d %s: %s footprint %v, fixpoint %v", seed, round, p, mode, fp, wantFp)
									}
									if mode == "DFA" && precise {
										cached = append(cached, entry{c: c, nodes: got, fp: fp})
									}
									forceNFA(c)
								}
								checked++
								if len(want) > 0 {
									nonEmpty++
								}
							}
							if _, err := churn.Step(); err != nil {
								t.Fatal(err)
							}
							data = data.Rebuild(x.Graph(), nil)
							s = x.PatchSnapshot(s, data)
							dirty := sortedDirty(t, s)
							for i, e := range cached {
								fresh, fp, _, _ := e.c.EvalSnapshotFootprint(nil, &sc, s)
								if !overlaps(dirty, e.fp) {
									if !equalIDs(fresh, e.nodes) {
										t.Fatalf("seed %d round %d %s: footprint disjoint from dirty %v but result changed: %v -> %v",
											seed, round, e.c.Expr(), dirty, e.nodes, fresh)
									}
									survived++
								}
								cached[i].nodes, cached[i].fp = fresh, fp
							}
						}
					}
				})
			}
		}
	}
	if nonEmpty == 0 || nonEmpty == checked || survived == 0 {
		t.Errorf("%d of %d chained answers non-empty, %d cached answers survived a publication: the check is vacuous on one side",
			nonEmpty, checked, survived)
	}
}
