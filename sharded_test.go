package structix

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"structix/internal/graph"
	"structix/internal/maint"
	"structix/internal/opscript"
	"structix/internal/shard"
	"structix/internal/wal"
)

// WriteRecord is the store's one write, exported to the external tests:
// the folded outcome of a record, which ApplyBatch reduces to its error.
func (db *DB) WriteRecord(rec *wal.Record) (OpResult, error) {
	res, _, err := db.write(rec)
	return res, err
}

// shardForest builds a graph of comps independent top-level subtrees
// (the unit of shard placement), each a small random tree plus a few
// intra-component IDREF edges.
func shardForest(seed int64, comps, size int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	root := g.AddRoot()
	tops := []string{"a", "b", "c"}
	for i := 0; i < comps; i++ {
		top := g.AddNode(tops[i%len(tops)])
		g.AddEdge(root, top, Tree)
		comp := []NodeID{top}
		for j := 0; j < size; j++ {
			lbl := "x"
			if j%3 == 1 {
				lbl = "y"
			}
			c := g.AddNode(lbl)
			g.AddEdge(comp[rng.Intn(len(comp))], c, Tree)
			comp = append(comp, c)
		}
		for k := 0; k < size/3; k++ {
			u, v := comp[rng.Intn(len(comp))], comp[rng.Intn(len(comp))]
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v, IDRef)
			}
		}
	}
	return g
}

var shardExprs = []string{
	"/a", "/b", "//x", "//y", "/a/x", "/*/x", "//x/y", "/a//y", "//x//y",
}

// translate maps unsharded result ids through mapping and sorts; the
// sharded evaluator's merged output must equal this exactly.
func translate(t *testing.T, mapping []NodeID, ids []NodeID) []NodeID {
	t.Helper()
	out := make([]NodeID, 0, len(ids))
	for _, v := range ids {
		if int(v) >= len(mapping) || mapping[v] == InvalidNode {
			t.Fatalf("result node %d has no sharded image", v)
		}
		out = append(out, mapping[v])
	}
	slices.Sort(out)
	return out
}

func compareStores(t *testing.T, ref *DB, sdb *DB, mapping []NodeID, when string) {
	t.Helper()
	for _, expr := range shardExprs {
		p := MustParsePath(expr)
		want := translate(t, mapping, ref.Eval(p))
		got := sdb.Eval(p)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %s: sharded %v != unsharded %v", when, expr, got, want)
		}
		if c := sdb.Count(p); c != len(want) {
			t.Fatalf("%s: %s: count %d != %d", when, expr, c, len(want))
		}
	}
}

func TestShardedBasic(t *testing.T) {
	sdb, _ := NewShardedDB(shardForest(1, 8, 6), 4)
	defer sdb.Close()
	if err := sdb.Validate(); err != nil {
		t.Fatal(err)
	}
	person, err := sdb.InsertNode("person", sdb.GlobalRoot())
	if err != nil {
		t.Fatal(err)
	}
	name, err := sdb.InsertNode("name", person)
	if err != nil {
		t.Fatal(err)
	}
	got := sdb.Eval(MustParsePath("/person/name"))
	if !slices.Equal(got, []NodeID{name}) {
		t.Fatalf("eval %v want [%d]", got, name)
	}
	if err := sdb.DeleteNode(name); err != nil {
		t.Fatal(err)
	}
	if n := sdb.Count(MustParsePath("/person/name")); n != 0 {
		t.Fatalf("count after delete = %d", n)
	}
}

// TestShardedEvalEquivalence is the pinned property of the sharded store:
// scatter-gather evaluation over N shards is (under the id mapping)
// exactly the unsharded evaluation, across random graphs and random op
// streams of every write kind the facade offers.
func TestShardedEvalEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", n, seed), func(t *testing.T) {
				testShardedEquivalence(t, n, seed)
			})
		}
	}
}

func testShardedEquivalence(t *testing.T, n int, seed int64) {
	base := shardForest(seed, 10, 8)
	ref := NewDB(BuildOneIndex(base.Clone()))
	sdb, mapping := NewShardedDB(base, n)
	defer sdb.Close()
	defer ref.Close()

	// comp[v] tracks which original top-level component each unsharded
	// node belongs to; ops stay intra-component so they can never demand
	// a cross-shard edge.
	comp := make(map[NodeID]int)
	pools := make([][]NodeID, 0)
	{
		ci := -1
		base.EachSucc(base.Root(), func(top NodeID, _ EdgeKind) {
			ci++
			for _, v := range base.Reachable(top, false) {
				if _, ok := comp[v]; !ok {
					comp[v] = ci
				}
			}
		})
		pools = make([][]NodeID, ci+1)
		for v, c := range comp {
			pools[c] = append(pools[c], v)
		}
		for _, p := range pools {
			sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
		}
	}
	mapTo := func(v NodeID) NodeID { return mapping[v] }
	learn := func(refID, shID NodeID) {
		for int(refID) >= len(mapping) {
			mapping = append(mapping, InvalidNode)
		}
		mapping[refID] = shID
	}

	rng := rand.New(rand.NewSource(seed + 100))
	compareStores(t, ref, sdb, mapping, "bootstrap")
	for step := 0; step < 120; step++ {
		c := rng.Intn(len(pools))
		pool := pools[c]
		switch k := rng.Intn(10); {
		case k < 3 && len(pool) >= 2: // IDREF insert (intra-component)
			u, v := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			refErr := ref.InsertEdge(u, v, IDRef)
			shErr := sdb.InsertEdge(mapTo(u), mapTo(v), IDRef)
			if (refErr == nil) != (shErr == nil) {
				t.Fatalf("step %d: insert edge divergence: %v vs %v", step, refErr, shErr)
			}
		case k < 5 && len(pool) >= 2: // edge delete (may fail identically)
			u, v := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			refErr := ref.DeleteEdge(u, v)
			shErr := sdb.DeleteEdge(mapTo(u), mapTo(v))
			if (refErr == nil) != (shErr == nil) {
				t.Fatalf("step %d: delete edge divergence: %v vs %v", step, refErr, shErr)
			}
		case k < 7: // add a node under an existing node
			parent := pool[rng.Intn(len(pool))]
			refID, refErr := ref.InsertNode("z", parent)
			shID, shErr := sdb.InsertNode("z", mapTo(parent))
			if (refErr == nil) != (shErr == nil) {
				t.Fatalf("step %d: insert node divergence: %v vs %v", step, refErr, shErr)
			}
			if refErr == nil {
				learn(refID, shID)
				pools[c] = append(pools[c], refID)
				comp[refID] = c
			}
		case k < 8: // new top-level subtree
			refID, refErr := ref.InsertNode("t", ref.GlobalRoot())
			shID, shErr := sdb.InsertNode("t", sdb.GlobalRoot())
			if (refErr == nil) != (shErr == nil) {
				t.Fatalf("step %d: top insert divergence: %v vs %v", step, refErr, shErr)
			}
			if refErr == nil {
				learn(refID, shID)
				pools = append(pools, []NodeID{refID})
				comp[refID] = len(pools) - 1
			}
		case k < 9: // atomic edge batch (pairs within one component)
			if len(pool) < 4 {
				continue
			}
			var refOps, shOps []EdgeOp
			for i := 0; i < 3; i++ {
				u, v := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
				refOps = append(refOps, InsertOp(u, v, IDRef))
				shOps = append(shOps, InsertOp(mapTo(u), mapTo(v), IDRef))
			}
			refErr := ref.ApplyBatch(refOps)
			shErr := sdb.ApplyBatch(shOps)
			if (refErr == nil) != (shErr == nil) {
				t.Fatalf("step %d: batch divergence: %v vs %v", step, refErr, shErr)
			}
		default: // subtree delete + re-add round trip
			v := pool[rng.Intn(len(pool))]
			if comp[v] != c || v == 0 {
				continue
			}
			refSG, refErr := ref.DeleteSubtree(v)
			shSG, shErr := sdb.DeleteSubtree(mapTo(v))
			if (refErr == nil) != (shErr == nil) {
				t.Fatalf("step %d: delsub divergence: %v vs %v", step, refErr, shErr)
			}
			if refErr != nil {
				continue
			}
			if len(refSG.Members) != len(shSG.Members) {
				t.Fatalf("step %d: member count %d vs %d", step, len(refSG.Members), len(shSG.Members))
			}
			refIDs, refErr := ref.AddSubgraph(refSG)
			shIDs, shErr := sdb.AddSubgraph(shSG)
			if (refErr == nil) != (shErr == nil) {
				t.Fatalf("step %d: addsub divergence: %v vs %v", step, refErr, shErr)
			}
			// Fresh ids on both sides, in the same local-index order.
			survivors := pools[c][:0]
			deleted := make(map[NodeID]bool, len(refSG.Members))
			for _, m := range refSG.Members {
				deleted[m] = true
			}
			for _, w := range pools[c] {
				if !deleted[w] {
					survivors = append(survivors, w)
				}
			}
			pools[c] = survivors
			for i := range refIDs {
				learn(refIDs[i], shIDs[i])
				pools[c] = append(pools[c], refIDs[i])
				comp[refIDs[i]] = c
			}
		}
		if step%20 == 19 {
			compareStores(t, ref, sdb, mapping, fmt.Sprintf("step %d", step))
		}
	}
	compareStores(t, ref, sdb, mapping, "final")
	if err := sdb.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConcurrentWriters drives one writer per shard through the
// facade while readers evaluate merged
// results, then checks the end state equals an unsharded store that
// applied the same ops. Run with -race this pins the claim that per-shard
// commits are coordination-free.
func TestShardedConcurrentWriters(t *testing.T) {
	base := shardForest(42, 12, 8)
	ref := NewDB(BuildOneIndex(base.Clone()))
	const n = 4
	sdb, mapping := NewShardedDB(base, n)
	defer sdb.Close()
	defer ref.Close()

	// Partition the components by the shard they landed on, so each
	// worker's ops stay on its own shard.
	perShard := make([][]NodeID, n)
	base.EachNode(func(v NodeID) {
		if v == base.Root() {
			return
		}
		s := sdb.Map().Router().ShardOf(mapping[v])
		perShard[s] = append(perShard[s], v)
	})

	type rec struct {
		u, v NodeID
	}
	plans := make([][]rec, n)
	for s := 0; s < n; s++ {
		rng := rand.New(rand.NewSource(int64(1000 + s)))
		pool := perShard[s]
		if len(pool) < 2 {
			continue
		}
		// Only pair nodes from the same original component (same shard ≠
		// same component), and only edges that don't already exist — each
		// plan entry is an insert+delete pair that restores the state.
		for i := 0; i < 60; i++ {
			u, v := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if u == v || base.HasEdge(u, v) {
				continue
			}
			if sameComponent(base, u, v) {
				plans[s] = append(plans[s], rec{u: u, v: v})
			}
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // reader: merged evaluation must never race a commit
		defer wg.Done()
		p := MustParsePath("//x")
		for {
			select {
			case <-stop:
				return
			default:
				_ = sdb.Eval(p)
			}
		}
	}()
	var werr sync.Map
	var ww sync.WaitGroup
	for s := 0; s < n; s++ {
		ww.Add(1)
		go func(s int) {
			defer ww.Done()
			for _, r := range plans[s] {
				err := sdb.InsertEdge(mapping[r.u], mapping[r.v], IDRef)
				if err == nil {
					err = sdb.DeleteEdge(mapping[r.u], mapping[r.v])
				}
				if err != nil {
					werr.Store(s, err)
					return
				}
			}
		}(s)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	werr.Range(func(k, v any) bool {
		t.Fatalf("shard %v writer: %v", k, v)
		return false
	})

	// Insert+delete pairs cancel: the final state must equal bootstrap.
	compareStores(t, ref, sdb, mapping, "after concurrent writers")
	if err := sdb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func sameComponent(g *Graph, u, v NodeID) bool {
	seen := map[NodeID]bool{}
	stack := []NodeID{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x] || x == g.Root() {
			continue
		}
		seen[x] = true
		if x == v {
			return true
		}
		g.EachSucc(x, func(w NodeID, _ EdgeKind) { stack = append(stack, w) })
		g.EachPred(x, func(w NodeID, _ EdgeKind) { stack = append(stack, w) })
	}
	return false
}

func TestShardedCrossShardRejected(t *testing.T) {
	sdb, _ := NewShardedDB(shardForest(3, 8, 5), 4)
	defer sdb.Close()
	// Find two alive non-root nodes on different shards.
	var a, b NodeID = InvalidNode, InvalidNode
	snap := sdb.Snapshot()
	r := sdb.Map().Router()
	for s := 0; s < snap.NumShards() && (a == InvalidNode || b == InvalidNode); s++ {
		d := snap.Shard(s).Data()
		for v := NodeID(1); v < d.MaxNodeID(); v++ {
			if d.Alive(v) {
				if a == InvalidNode {
					a = r.GlobalOf(s, v)
				} else if r.ShardOf(a) != s {
					b = r.GlobalOf(s, v)
				}
				break
			}
		}
	}
	if a == InvalidNode || b == InvalidNode {
		t.Skip("could not find nodes on two shards")
	}
	if err := sdb.InsertEdge(a, b, IDRef); !errors.Is(err, shard.ErrCrossShard) {
		t.Fatalf("cross-shard edge: %v, want ErrCrossShard", err)
	}
	// The refusal names the op in the caller's coordinates, as the wire
	// does, and nothing commits — not even the batch's other parts.
	same := InsertOp(a, sdb.GlobalRoot(), IDRef)
	var be *BatchError
	err := sdb.ApplyBatch([]EdgeOp{same, InsertOp(a, b, IDRef)})
	if !errors.As(err, &be) || be.OpIndex != 1 || be.Op != InsertOp(a, b, IDRef) || !errors.Is(err, shard.ErrCrossShard) {
		t.Fatalf("cross-shard batch: %v, want op 1 ErrCrossShard", err)
	}
	if err := sdb.ApplyBatch([]EdgeOp{same}); err != nil {
		t.Fatalf("the refused batch's first op: %v; it committed", err)
	}
	var oe *opscript.OpError
	_, err = sdb.ApplyScript([]ScriptOp{
		{Kind: opscript.AddNode, Label: "n", V: a},
		{Kind: opscript.AddNode, Label: "n", V: b},
	})
	if !errors.As(err, &oe) || oe.Index != 1 || oe.Op.V != b || !errors.Is(err, shard.ErrCrossShard) {
		t.Fatalf("cross-shard script: %v, want op 1 ErrCrossShard", err)
	}
}

// TestShardedEmptySubgraph: a subgraph with no nodes passes Check, and
// the single store grafts nothing; the sharded store must agree, on any
// shard count, rather than fail to place it.
func TestShardedEmptySubgraph(t *testing.T) {
	db := NewDB(BuildOneIndex(shardForest(4, 4, 4)))
	defer db.Close()
	want, err := db.AddSubgraph(&Subgraph{})
	if err != nil || len(want) != 0 {
		t.Fatalf("DB.AddSubgraph(empty) = %v, %v", want, err)
	}
	for _, n := range []int{1, 2, 3} {
		sdb, _ := NewShardedDB(shardForest(4, 4, 4), n)
		ids, err := sdb.AddSubgraph(&Subgraph{})
		if err != nil || len(ids) != 0 {
			t.Fatalf("%d shards: AddSubgraph(empty) = %v, %v", n, ids, err)
		}
		if err := sdb.Validate(); err != nil {
			t.Fatal(err)
		}
		sdb.Close()
	}
}

// TestShardedErrorsInGlobalIds: a refusal that names a node names the
// caller's global id, whether it comes back from a script, a single-op
// entry point, DeleteSubtree or AddSubgraph.
func TestShardedErrorsInGlobalIds(t *testing.T) {
	sdb, _ := NewShardedDB(shardForest(6, 8, 5), 2)
	defer sdb.Close()
	top, err := sdb.InsertNode("annex", sdb.GlobalRoot())
	if err != nil {
		t.Fatal(err)
	}
	v, err := sdb.InsertNode("memo", top)
	if err != nil {
		t.Fatal(err)
	}
	if err := sdb.DeleteNode(v); err != nil {
		t.Fatal(err)
	}
	if sdb.Map().Router().LocalOf(v) == v {
		t.Fatalf("node %d has the same id on its shard; the test shows nothing", v)
	}
	named := func(what string, err error, node NodeID, cause error) {
		t.Helper()
		var ne *maint.NodeError
		if !errors.As(err, &ne) || ne.Node != node || !errors.Is(err, cause) {
			t.Fatalf("%s: %v, want node %d: %v", what, err, node, cause)
		}
	}
	named("DeleteNode", sdb.DeleteNode(v), v, ErrDeadNode)
	_, err = sdb.DeleteSubtree(v)
	named("DeleteSubtree", err, v, ErrDeadNode)
	_, err = sdb.DeleteSubtree(sdb.GlobalRoot())
	named("DeleteSubtree(root)", err, sdb.GlobalRoot(), ErrRootNode)
	_, err = sdb.ApplyScript([]ScriptOp{{Kind: opscript.DelSub, U: v}})
	var oe *opscript.OpError
	if !errors.As(err, &oe) || oe.Op.U != v {
		t.Fatalf("delsub script: %v, want op on %d", err, v)
	}
	named("delsub script", err, v, ErrDeadNode)
	memo := sdb.labels.in.Intern("memo")
	_, err = sdb.AddSubgraph(&Subgraph{Labels: []graph.LabelID{memo}, Values: []string{""}, CrossOut: []graph.CrossEdge{{Outside: v, Kind: IDRef}}})
	named("AddSubgraph", err, v, ErrDeadNode)
}

// TestOpenShardedDurable exercises the durable lifecycle: bootstrap,
// write, close, reopen, state intact; manifest pins the shard count.
func TestOpenShardedDurable(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Database, error) { return &Database{Graph: shardForest(9, 8, 6)}, nil }
	opts := Options{Shards: 4, Bootstrap: boot, CompactEvery: -1}
	sdb, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	person, err := sdb.InsertNode("person", sdb.GlobalRoot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.InsertNode("name", person); err != nil {
		t.Fatal(err)
	}
	wantPN := sdb.Eval(MustParsePath("/person/name"))
	wantX := sdb.Eval(MustParsePath("//x"))
	if len(wantPN) != 1 {
		t.Fatalf("person/name = %v", wantPN)
	}
	for s := 0; s < sdb.NumShards(); s++ {
		if !sdb.Shard(s).Stats().Durable {
			t.Fatalf("shard %d not durable", s)
		}
		wd := filepath.Join(dir, shardDirName(s), "wal")
		if _, err := os.Stat(wd); err != nil {
			t.Fatalf("shard %d has no wal dir: %v", s, err)
		}
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without Shards: the manifest supplies the count.
	sdb2, err := Open(dir, Options{Bootstrap: boot, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb2.Close()
	if sdb2.NumShards() != 4 {
		t.Fatalf("reopened with %d shards", sdb2.NumShards())
	}
	if got := sdb2.Eval(MustParsePath("/person/name")); !slices.Equal(got, wantPN) {
		t.Fatalf("person/name after reopen %v want %v", got, wantPN)
	}
	if got := sdb2.Eval(MustParsePath("//x")); !slices.Equal(got, wantX) {
		t.Fatalf("//x after reopen %v want %v", got, wantX)
	}

	// A disagreeing shard count is refused.
	var le *LayoutError
	if _, err := Open(dir, Options{Shards: 2}); !errors.As(err, &le) || le.Shards != 4 || le.Asked != 2 {
		t.Fatalf("shard-count mismatch: %v", err)
	}
}

// TestUpdatePublishOnlyOnSuccess pins the Shard.Update contract: a failing
// update must not publish — readers keep the pre-update snapshot.
func TestUpdatePublishOnlyOnSuccess(t *testing.T) {
	g := shardForest(5, 4, 4)
	db := NewDB(BuildOneIndex(g))
	defer db.Close()
	before := db.Shard(0).Snapshot()
	errBoom := fmt.Errorf("boom")
	err := db.Shard(0).Update(func(x Index) error {
		// A mutation fn makes before failing; it must stay unpublished.
		_, _ = opscript.Apply(x, []ScriptOp{{Kind: opscript.AddNode, Label: "ghost", V: x.Graph().Root()}})
		return errBoom
	})
	if err != errBoom {
		t.Fatalf("err = %v", err)
	}
	if db.Shard(0).Snapshot() != before {
		t.Fatal("failed Update published a snapshot")
	}
	if n := db.Count(MustParsePath("/ghost")); n != 0 {
		t.Fatalf("failed update visible to readers: %d", n)
	}
	// A successful update still publishes.
	if err := db.Shard(0).Update(func(x Index) error {
		_, err := opscript.Apply(x, []ScriptOp{{Kind: opscript.AddNode, Label: "real", V: x.Graph().Root()}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n := db.Count(MustParsePath("/real")); n != 1 {
		t.Fatalf("successful update not visible: %d", n)
	}
}

// Every shard replicates the root, so once an IDREF on each of two shards
// leads back into it the root is a result on both: scatter-gather must
// still report it once, in Eval and in Count, as the unsharded store does.
func TestShardedRootResultOnce(t *testing.T) {
	base := shardForest(1, 8, 6)
	root := base.Root()
	sdb, mapping := NewShardedDB(base.Clone(), 2)
	defer sdb.Close()
	ref := NewDB(BuildOneIndex(base.Clone()))
	var refOps, shardOps []EdgeOp
	onShard := map[int]bool{}
	for _, top := range base.Succ(root) {
		if s := int(mapping[top]) % 2; !onShard[s] {
			onShard[s] = true
			refOps = append(refOps, InsertOp(top, root, IDRef))
			shardOps = append(shardOps, InsertOp(mapping[top], sdb.GlobalRoot(), IDRef))
		}
	}
	if len(shardOps) != 2 {
		t.Fatalf("top-level subtrees landed on %d shards, need 2", len(shardOps))
	}
	if err := ref.ApplyBatch(refOps); err != nil {
		t.Fatal(err)
	}
	if err := sdb.ApplyBatch(shardOps); err != nil {
		t.Fatal(err)
	}
	rootLabel := base.LabelName(root)
	for _, expr := range []string{"//" + rootLabel, "/*/" + rootLabel, "//" + rootLabel + "/a", "//*"} {
		p := MustParsePath(expr)
		want := translate(t, mapping, ref.Eval(p))
		if got := sdb.Eval(p); !slices.Equal(got, want) {
			t.Errorf("%s: sharded %v != unsharded %v", expr, got, want)
		}
		if got := sdb.Count(p); got != len(want) {
			t.Errorf("%s: sharded count %d != %d", expr, got, len(want))
		}
	}
}

// TestAddSubgraphUnissuedLabel: a Subgraph's LabelIDs are in the store's
// own label space at every shard count, so an id the store never issued
// names no label. AddSubgraph refuses it with ErrBadSubgraph before
// anything routes or commits — it is not grafted as a "label#N" node —
// and the cut it came from still grafts back.
func TestAddSubgraphUnissuedLabel(t *testing.T) {
	for _, n := range []int{1, 2} {
		g := shardForest(3, 6, 4)
		db := NewDB(BuildOneIndex(g))
		if n > 1 {
			db, _ = NewShardedDB(g, n)
		}
		cut, err := db.DeleteSubtree(db.Eval(MustParsePath("/a"))[0])
		if err != nil {
			t.Fatal(err)
		}
		all := MustParsePath("//*")
		nodes, snaps := db.Count(all), db.Snapshot()
		for _, id := range []graph.LabelID{graph.LabelID(db.labels.in.Len()), -1} {
			bad := *cut
			bad.Labels = slices.Clone(cut.Labels)
			bad.Labels[len(bad.Labels)-1] = id
			if _, err := db.AddSubgraph(&bad); !errors.Is(err, ErrBadSubgraph) {
				t.Fatalf("%d shards: label id %d: %v, want ErrBadSubgraph", n, id, err)
			}
		}
		for s := 0; s < n; s++ {
			if db.Shard(s).Snapshot() != snaps.Shard(s) {
				t.Fatalf("%d shards: a refused graft published shard %d", n, s)
			}
		}
		if _, err := db.AddSubgraph(cut); err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		if got := db.Count(all); got != nodes+len(cut.Labels) {
			t.Fatalf("%d shards: %d nodes after the re-graft, want %d", n, got, nodes+len(cut.Labels))
		}
		if err := db.Validate(); err != nil {
			t.Fatal(err)
		}
		db.Close()
	}
}
