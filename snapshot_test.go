package structix_test

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"structix"
	"structix/internal/gtest"
	"structix/internal/query"
)

// poolEdges removes 20% of IDREF edges and returns them (absent from g).
func poolEdges(g *structix.Graph, seed int64) [][2]structix.NodeID {
	before := g.EdgeList(structix.IDRef)
	structix.MixedUpdateScript(g, 0.2, 0, seed)
	present := make(map[[2]structix.NodeID]bool)
	for _, e := range g.EdgeList(structix.IDRef) {
		present[e] = true
	}
	var pool [][2]structix.NodeID
	for _, e := range before {
		if !present[e] {
			pool = append(pool, e)
		}
	}
	return pool
}

// batchPool builds insert/delete batches over a pool of absent IDREF
// edges: each batch inserts a window of pool edges, the next deletes it.
func batchPool(pool [][2]structix.NodeID, width int) (inserts, deletes [][]structix.EdgeOp) {
	for off := 0; off+width <= len(pool); off += width {
		var ins, del []structix.EdgeOp
		for _, e := range pool[off : off+width] {
			ins = append(ins, structix.InsertOp(e[0], e[1], structix.IDRef))
			del = append(del, structix.DeleteOp(e[0], e[1]))
		}
		inserts = append(inserts, ins)
		deletes = append(deletes, del)
	}
	return
}

// Lock-free readers hammer a DB over a 1-index while a writer applies
// batches, per-edge updates and a subtree round trip; run with -race.
// Readers must always see a complete, internally consistent epoch.
func TestDBRaceOneIndex(t *testing.T) {
	g := structix.GenerateXMark(structix.DefaultXMark(512, 1, 6))
	pool := poolEdges(g, 6)
	if len(pool) < 4 {
		t.Skip("no pool edges at this scale")
	}
	c := structix.NewDB(structix.BuildOneIndex(g))
	queries := []*structix.Path{
		structix.MustParsePath("//person/name"),
		structix.MustParsePath("/site/open_auctions/open_auction"),
		structix.MustParsePath("//person[name]"),
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := queries[(r+i)%len(queries)]
				res := c.Eval(p)
				if n := c.Count(p); !p.HasPredicates() && n != len(res) {
					// Count and Eval may observe different epochs, but each
					// must be self-consistent; re-check on one pinned snapshot.
					s := c.Shard(0).Snapshot()
					if structix.CountSnapshot(p, s) != len(structix.EvalSnapshot(p, s)) {
						t.Errorf("count != len(eval) on one snapshot for %v", p)
						return
					}
				}
				_ = c.Snapshot().Size()
				_ = c.Shard(0).Snapshot().RootINode()
			}
		}(r)
	}
	inserts, deletes := batchPool(pool, 2)
	for round := 0; round < 30; round++ {
		i := round % len(inserts)
		if err := c.ApplyBatch(inserts[i]); err != nil {
			t.Errorf("insert batch: %v", err)
			break
		}
		if err := c.ApplyBatch(deletes[i]); err != nil {
			t.Errorf("delete batch: %v", err)
			break
		}
		// A rejected batch must not disturb readers or state.
		bad := []structix.EdgeOp{deletes[i][0]}
		if err := c.ApplyBatch(bad); err == nil {
			t.Error("double delete accepted")
			break
		}
	}
	for i := 0; i < 100; i++ {
		e := pool[i%len(pool)]
		if err := c.InsertEdge(e[0], e[1], structix.IDRef); err != nil {
			t.Error(err)
			break
		}
		if err := c.DeleteEdge(e[0], e[1]); err != nil {
			t.Error(err)
			break
		}
	}
	var auction structix.NodeID = structix.InvalidNode
	func(s *structix.Snapshot) {
		d := s.Data()
		for v := structix.NodeID(0); v < d.MaxNodeID(); v++ {
			if d.Alive(v) && d.LabelName(v) == "open_auction" {
				auction = v
				break
			}
		}
	}(c.Shard(0).Snapshot())
	if auction != structix.InvalidNode {
		sg, err := c.DeleteSubtree(auction)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddSubgraph(sg); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Errorf("index invalid after concurrent run: %v", err)
	}
	close(stop)
	wg.Wait()
}

// The A(k) counterpart: snapshot readers (including validation against
// the frozen graph) race batch and per-edge writers through the same DB.
func TestDBRaceAk(t *testing.T) {
	g := structix.GenerateIMDB(structix.DefaultIMDB(512, 6))
	pool := poolEdges(g, 7)
	if len(pool) < 4 {
		t.Skip("no pool edges at this scale")
	}
	c := structix.NewDB(structix.BuildAkIndex(g, 2))
	p := structix.MustParsePath("//movie/actorref/person")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Eval(p)
				_ = c.Count(p)
				_ = c.Snapshot().Size()
				_ = c.Shard(0).Snapshot().K()
			}
		}()
	}
	inserts, deletes := batchPool(pool, 2)
	for round := 0; round < 20; round++ {
		i := round % len(inserts)
		if err := c.ApplyBatch(inserts[i]); err != nil {
			t.Errorf("insert batch: %v", err)
			break
		}
		if err := c.ApplyBatch(deletes[i]); err != nil {
			t.Errorf("delete batch: %v", err)
			break
		}
	}
	for i := 0; i < 60; i++ {
		e := pool[i%len(pool)]
		if err := c.InsertEdge(e[0], e[1], structix.IDRef); err != nil {
			t.Error(err)
			break
		}
		if err := c.DeleteEdge(e[0], e[1]); err != nil {
			t.Error(err)
			break
		}
	}
	if err := c.Validate(); err != nil {
		t.Errorf("family invalid after concurrent run: %v", err)
	}
	close(stop)
	wg.Wait()
}

// A DB over an A(k) family must answer every path exactly — at most k
// steps from the index alone, longer or descendant paths by validation —
// through a stream of every kind of write, with readers racing the writer
// (run with -race). After every commit: Eval equals direct traversal of
// the graph, and the patched snapshot equals a fresh Freeze.
func TestDBAkOracle(t *testing.T) {
	const k = 2
	exprs := []string{"/a", "/a/b", "/*/c", "/a/b/c", "/a/*/c/d", "//b", "//a//c", "/b//d/e", "//c[d]"}
	gens := map[string]func(*rand.Rand, int, int) *structix.Graph{"dag": gtest.RandomDAG, "cyclic": gtest.RandomCyclic}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			g := gen(rng, 150, 60)
			ak := structix.BuildAkIndex(g, k)
			db := structix.NewDB(ak)
			var paths []*structix.Path
			short, long := 0, 0
			for _, e := range exprs {
				p := structix.MustParsePath(e)
				paths = append(paths, p)
				if query.NeedsValidation(p.Skeleton(), k) {
					long++
				} else {
					short++
				}
			}
			if short < 3 || long < 3 {
				t.Fatalf("%d paths within k, %d beyond: the oracle needs both", short, long)
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := r; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						// One pinned epoch is self-consistent whatever the writer does.
						p, s := paths[i%len(paths)], db.Shard(0).Snapshot()
						if got, want := structix.EvalSnapshot(p, s), query.EvalGraph(p, s.Data()); !slices.Equal(got, want) {
							t.Errorf("reader: %v on a pinned snapshot: %v, frozen graph says %v", p, got, want)
							return
						}
					}
				}(r)
			}
			churn := gtest.Churner{Rng: rng}
			matched := 0
			for step := 0; step < 150; step++ {
				var what string
				if err := db.Shard(0).Update(func(x structix.Index) (err error) {
					churn.X = x
					what, err = churn.Step()
					return err
				}); err != nil {
					t.Fatalf("step %d (%s): %v", step, what, err)
				}
				for _, p := range paths {
					got, want := db.Eval(p), structix.EvalGraph(p, g)
					if !slices.Equal(got, want) {
						t.Fatalf("step %d (%s) %v: store %v, graph %v", step, what, p, got, want)
					}
					if n := db.Count(p); n != len(want) {
						t.Fatalf("step %d (%s) %v: Count %d, graph %d", step, what, p, n, len(want))
					}
					matched += len(want)
				}
				s := db.Shard(0).Snapshot()
				if _, ok := s.Changed(); !ok || !s.Bounded() || s.K() != k {
					t.Fatalf("step %d (%s): published by full freeze, or not as A(%d): %v", step, what, k, s)
				}
				// This goroutine is the only writer and the dirty set is
				// empty after publication, so the live family may be frozen.
				if d := gtest.SnapshotDiff(s, ak.Freeze(g.Clone().Freeze())); d != "" {
					t.Fatalf("step %d (%s): patched chain differs from a fresh freeze: %s", step, what, d)
				}
			}
			close(stop)
			wg.Wait()
			if matched < 150*len(paths) {
				t.Fatalf("only %d matches over the whole stream: the oracle is close to vacuous", matched)
			}
			if err := db.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: snapshot reads are identical to direct reads of the live graph
// taken at the same quiescent point, across batches and rejections.
func TestSnapshotEqualsLiveReads(t *testing.T) {
	g := structix.GenerateXMark(structix.DefaultXMark(768, 1, 4))
	pool := poolEdges(g, 4)
	if len(pool) < 6 {
		t.Skip("no pool edges at this scale")
	}
	idx := structix.BuildOneIndex(g)
	snap := structix.NewDB(idx) // the live graphs are read at quiescent points only

	gAk := g.Clone()
	snapAk := structix.NewDB(structix.BuildAkIndex(gAk, 2))

	queries := []*structix.Path{
		structix.MustParsePath("//person/name"),
		structix.MustParsePath("/site/people/person"),
		structix.MustParsePath("//open_auction//person"),
		structix.MustParsePath("//person[name]"),
		structix.MustParsePath("/site/*/*"),
	}
	check := func(stage string) {
		t.Helper()
		for _, p := range queries {
			a := snap.Eval(p)
			b := structix.EvalGraph(p, g)
			if len(a) != len(b) {
				t.Fatalf("%s %v: snapshot %d nodes, live %d", stage, p, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s %v: results differ at %d: %d vs %d", stage, p, i, a[i], b[i])
				}
			}
			if snap.Count(p) != len(b) {
				t.Fatalf("%s %v: counts differ", stage, p)
			}
			ea := snapAk.Eval(p)
			eb := structix.EvalGraph(p, gAk)
			if len(ea) != len(eb) {
				t.Fatalf("%s %v: ak snapshot %d nodes, live %d", stage, p, len(ea), len(eb))
			}
			for i := range ea {
				if ea[i] != eb[i] {
					t.Fatalf("%s %v: ak results differ at %d", stage, p, i)
				}
			}
		}
	}
	check("initial")
	ins, del := batchPool(pool, 3)
	for round := 0; round < len(ins) && round < 6; round++ {
		if err := snap.ApplyBatch(ins[round]); err != nil {
			t.Fatal(err)
		}
		if err := snapAk.ApplyBatch(ins[round]); err != nil {
			t.Fatal(err)
		}
		check("after insert batch")
		// A rejected batch must leave the served snapshot unchanged.
		bad := append(append([]structix.EdgeOp{}, del[round]...), del[round][0])
		var be *structix.BatchError
		if err := snap.ApplyBatch(bad); !errors.As(err, &be) {
			t.Fatalf("bad batch: got %v", err)
		}
		if be.OpIndex != len(bad)-1 {
			t.Fatalf("bad batch rejected at op %d, want %d", be.OpIndex, len(bad)-1)
		}
		if err := snapAk.ApplyBatch(bad); !errors.As(err, &be) {
			t.Fatalf("ak bad batch: got %v", err)
		}
		check("after rejected batch")
		if err := snap.ApplyBatch(del[round]); err != nil {
			t.Fatal(err)
		}
		if err := snapAk.ApplyBatch(del[round]); err != nil {
			t.Fatal(err)
		}
		check("after delete batch")
	}
}

// Mutate-after-eval: results handed out by Eval and pinned snapshots must
// be unaffected by subsequent maintenance (the aliasing contract).
func TestSnapshotAliasing(t *testing.T) {
	g := structix.GenerateXMark(structix.DefaultXMark(512, 1, 11))
	pool := poolEdges(g, 11)
	if len(pool) < 2 {
		t.Skip("no pool edges at this scale")
	}
	c := structix.NewDB(structix.BuildOneIndex(g))
	p := structix.MustParsePath("//person/name")

	res := c.Eval(p)
	resCopy := append([]structix.NodeID(nil), res...)
	pinned := c.Shard(0).Snapshot()
	var pinnedExtent []structix.NodeID
	var pinnedInode structix.INodeID = -1
	for i := 0; i < 1<<16; i++ {
		if pinned.Live(structix.INodeID(i)) {
			pinnedInode = structix.INodeID(i)
			break
		}
	}
	if pinnedInode >= 0 {
		pinnedExtent = append([]structix.NodeID(nil), pinned.Extent(pinnedInode)...)
	}

	ins, del := batchPool(pool, 2)
	for round := 0; round < 5 && round < len(ins); round++ {
		if err := c.ApplyBatch(ins[round]); err != nil {
			t.Fatal(err)
		}
		if err := c.ApplyBatch(del[round]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range resCopy {
		if res[i] != resCopy[i] {
			t.Fatalf("Eval result mutated by subsequent maintenance at %d", i)
		}
	}
	if pinnedInode >= 0 {
		got := pinned.Extent(pinnedInode)
		if len(got) != len(pinnedExtent) {
			t.Fatal("pinned snapshot extent changed length under maintenance")
		}
		for i := range got {
			if got[i] != pinnedExtent[i] {
				t.Fatal("pinned snapshot extent mutated under maintenance")
			}
		}
	}
}

// Persist round-trip: a database written and reloaded must keep both
// indexes maintainable — apply a batch to the loaded copy and validate.
func TestPersistRoundTripThenBatch(t *testing.T) {
	g := structix.GenerateXMark(structix.DefaultXMark(512, 1, 13))
	pool := poolEdges(g, 13)
	if len(pool) < 2 {
		t.Skip("no pool edges at this scale")
	}
	var ops []structix.EdgeOp
	for _, e := range pool[:2] {
		ops = append(ops, structix.InsertOp(e[0], e[1], structix.IDRef))
	}
	// Each index gets its own graph so ApplyBatch (which ingests the ops
	// into the bound graph) can run on both loaded indexes independently.
	gAk := g.Clone()
	dbOne := &structix.Database{Graph: g, One: structix.BuildOneIndex(g)}
	dbAk := &structix.Database{Graph: gAk, Ak: structix.BuildAkIndex(gAk, 2)}
	var bufOne, bufAk bytes.Buffer
	if err := structix.SaveDatabase(&bufOne, dbOne); err != nil {
		t.Fatal(err)
	}
	if err := structix.SaveDatabase(&bufAk, dbAk); err != nil {
		t.Fatal(err)
	}
	loaded, err := structix.LoadDatabase(&bufOne)
	if err != nil {
		t.Fatal(err)
	}
	loadedAk, err := structix.LoadDatabase(&bufAk)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.One.ApplyBatch(ops); err != nil {
		t.Fatalf("batch on loaded 1-index: %v", err)
	}
	if err := loadedAk.Ak.ApplyBatch(ops); err != nil {
		t.Fatalf("batch on loaded A(k): %v", err)
	}
	if err := loaded.One.Validate(); err != nil {
		t.Fatalf("loaded 1-index invalid after batch: %v", err)
	}
	if err := loadedAk.Ak.Validate(); err != nil {
		t.Fatalf("loaded A(k) invalid after batch: %v", err)
	}
	// The loaded indexes can also serve snapshots immediately.
	s := structix.NewDB(loaded.One)
	p := structix.MustParsePath("//person/name")
	if got, want := len(s.Eval(p)), len(structix.EvalGraph(p, loaded.Graph)); got != want {
		t.Fatalf("snapshot over loaded index: %d results, want %d", got, want)
	}
}

// Readers pin one snapshot and keep comparing it, accessor by accessor,
// with an independently frozen twin of the same state while the writer
// publishes 1000 successors over it — every kind of write, each patch
// sharing pages with the pinned predecessor. Run with -race: a write into
// a shared page is a data race, a wrong copy a difference.
func TestPinnedSnapshotUnchangedUnderPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gtest.RandomCyclic(rng, 300, 120)
	idx := structix.BuildOneIndex(g)
	twin := idx.Freeze(g.Clone().Freeze())
	c := structix.NewDB(idx)
	pinned := c.Shard(0).Snapshot()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one last full pass after the final patch
				default:
				}
				if d := gtest.SnapshotDiff(pinned, twin); d != "" {
					t.Errorf("pinned snapshot changed under the writer: %s", d)
					return
				}
			}
		}()
	}
	churn := gtest.Churner{Rng: rng}
	for i := 0; i < 1000; i++ {
		if err := c.Shard(0).Update(func(x structix.Index) error {
			churn.X = x
			_, err := churn.Step()
			return err
		}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, ok := c.Shard(0).Snapshot().Changed(); !ok {
			t.Fatalf("write %d published by full freeze", i)
		}
	}
	close(stop)
	wg.Wait()
	if d := gtest.SnapshotDiff(c.Shard(0).Snapshot(), idx.Freeze(g.Clone().Freeze())); d != "" {
		t.Fatalf("after 1000 patches the chain differs from a fresh freeze: %s", d)
	}
}

// publicationCost applies the benchmark's write traffic — 8-op batches of
// new person→open_auction IDREF edges, inserted and then deleted again —
// to an XMark graph of the given scale (the divisor of the paper
// instance: smaller is larger) and returns the bytes Graph.Freeze plus
// PatchSnapshot allocated over all commits and the inode slots they
// dirtied. The graph's own page copies are paid inside ApplyBatch, by
// the first write to each page after a Freeze.
func publicationCost(t *testing.T, scale int) (nodes int, bytes uint64, dirtied int) {
	g := structix.GenerateXMark(structix.DefaultXMark(scale, 1, 1))
	var persons, auctions []structix.NodeID
	g.EachNode(func(v structix.NodeID) {
		switch g.LabelName(v) {
		case "person":
			persons = append(persons, v)
		case "open_auction":
			auctions = append(auctions, v)
		}
	})
	rng := rand.New(rand.NewSource(1))
	seen := map[[2]structix.NodeID]bool{}
	var pool [][2]structix.NodeID
	for len(pool) < 16*8 {
		e := [2]structix.NodeID{persons[rng.Intn(len(persons))], auctions[rng.Intn(len(auctions))]}
		if !seen[e] && !g.HasEdge(e[0], e[1]) {
			seen[e] = true
			pool = append(pool, e)
		}
	}
	inserts, deletes := batchPool(pool, 8)
	idx := structix.BuildOneIndex(g)
	snap := idx.Freeze(g.Freeze())
	var before, after runtime.MemStats
	for _, ops := range append(inserts, deletes...) {
		if err := idx.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		snap = idx.PatchSnapshot(snap, g.Freeze())
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		changed, _ := snap.Changed()
		dirtied += len(changed)
	}
	return g.NumNodes(), bytes, dirtied
}

// TestPublicationScaling is the gate on O(delta) publication: what a
// commit's publication allocates must follow what the commit dirtied, not
// the size of the graph. The same traffic on a graph 8x larger dirties
// about twice the inodes per commit (the extents it splits are larger);
// per dirtied inode the cost may rise by at most 2x — the page spines
// still grow with the graph — where the flat-slice snapshots this
// replaced rose with the graph itself.
func TestPublicationScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 290k-node graph")
	}
	smallN, smallB, smallD := publicationCost(t, 8)
	largeN, largeB, largeD := publicationCost(t, 1)
	small, large := float64(smallB)/float64(smallD), float64(largeB)/float64(largeD)
	t.Logf("%d nodes: %d B over %d dirtied inodes (%.0f B each); %d nodes: %d B over %d (%.0f B each): x%.2f per inode, x%.2f in all",
		smallN, smallB, smallD, small, largeN, largeB, largeD, large, large/small, float64(largeB)/float64(smallB))
	if largeN < 7*smallN {
		t.Fatalf("graphs are not 8x apart: %d vs %d nodes", smallN, largeN)
	}
	if large >= 2*small {
		t.Errorf("publication allocates %.0f B per dirtied inode at %d nodes but %.0f B at %d nodes: it scales with the graph", small, smallN, large, largeN)
	}
}
