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
	if c.numSyms != 3 {
		t.Errorf("numSyms = %d, want 3", c.numSyms)
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

	if _, err := Compile(&Path{}); err == nil {
		t.Error("Compile accepted an empty path")
	}
	long := strings.Repeat("/a", maxSteps+1)
	if _, err := Compile(MustParse(long)); err == nil {
		t.Errorf("Compile accepted a %d-step path", maxSteps+1)
	}
	if c, err := Compile(MustParse(strings.Repeat("/a", maxSteps))); err != nil || c == nil {
		t.Errorf("Compile rejected a %d-step path: %v", maxSteps, err)
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
// interpreter's snapshot evaluation across randomized graphs, expressions,
// maintenance rounds, and both index families — and the NFA-fixpoint
// fallback must compute the same answers as the DFA product walk.
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
				wantOne := EvalSnapshot(p, oneSnap)
				buf = c.EvalSnapshotInto(buf, &sc, oneSnap)
				if !equalIDs(buf, wantOne) {
					t.Fatalf("seed %d round %d %q: compiled one %v != interpreter %v", seed, round, p, buf, wantOne)
				}
				wantAk := EvalSnapshot(p, akSnap)
				buf = c.EvalSnapshotInto(buf, &sc, akSnap)
				if !equalIDs(buf, wantAk) {
					t.Fatalf("seed %d round %d %q: compiled ak %v != interpreter %v", seed, round, p, buf, wantAk)
				}
				// Strip the DFA: the NFA bitmask fixpoint must agree.
				c.dfaNext, c.dfaAccept = nil, nil
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
				c.dfaNext, c.dfaAccept = nil, nil
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
	if !equalIDs(nodes, EvalSnapshot(c.Path(), snap)) {
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
							if got := EvalSnapshot(p, s); !equalIDs(got, want) {
								t.Fatalf("seed %d round %d %q: interpreter %v, graph %v", seed, round, p, got, want)
							}
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
								c.dfaNext, c.dfaAccept = nil, nil
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
// it iterates every slot's NFA state set, in ascending slot order, until
// nothing changes, and returns the slots that hold a non-empty set — the
// root and every slot some path prefix of the expression reaches.
func fixpointFootprint(c *Compiled, s *snap.Snapshot) []int32 {
	root := s.RootINode()
	if root < 0 {
		return nil
	}
	set := make([]uint64, s.Slots())
	set[root] = 1
	for changed := true; changed; {
		changed = false
		for i, m := range set {
			if m == 0 {
				continue
			}
			for _, j := range s.ISucc(snap.ID(i)) {
				if nm := c.step(m, c.symOf(s.LabelName(j))); nm&^set[j] != 0 {
					set[j] |= nm
					changed = true
				}
			}
		}
	}
	var fp []int32
	for i, m := range set {
		if m != 0 {
			fp = append(fp, int32(i))
		}
	}
	return fp
}
