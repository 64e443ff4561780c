package structix

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/opscript"
	"structix/internal/persist"
	"structix/internal/wal"
)

// insertBatch picks up to n distinct non-edges for one atomic batch.
func insertBatch(rng *rand.Rand, g *Graph, n int) []EdgeOp {
	var ops []EdgeOp
	seen := map[[2]NodeID]bool{}
	for i := 0; i < n; i++ {
		u, v, ok := gtest.RandomNonEdge(rng, g)
		if !ok || seen[[2]NodeID{u, v}] {
			continue
		}
		seen[[2]NodeID{u, v}] = true
		ops = append(ops, graph.InsertOp(u, v, graph.IDRef))
	}
	return ops
}

func xmarkBootstrap(objects int) func() (*Database, error) {
	return func() (*Database, error) {
		return &Database{Graph: datagen.XMark(datagen.DefaultXMark(objects, 1, 2))}, nil
	}
}

// snapshotBytes is the bit-identical fingerprint used by the recovery
// tests: the canonical persisted form of a snapshot. Two stores whose
// fingerprints match have identical NodeID spaces, labels, values,
// edges and index partitions.
func snapshotBytes(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.SaveSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOpenFreshBootstrapAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Bootstrap: xmarkBootstrap(64)})
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, db.Shard(0).Snapshot())
	size := db.Snapshot().Size()
	if size == 0 {
		t.Fatal("bootstrap produced an empty index")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a Bootstrap that must NOT run again: the initial state
	// was snapshotted during the first Open.
	db2, err := Open(dir, Options{Bootstrap: func() (*Database, error) {
		t.Error("bootstrap re-ran on a non-empty directory")
		return nil, errors.New("unreachable")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := snapshotBytes(t, db2.Shard(0).Snapshot()); !bytes.Equal(got, want) {
		t.Error("reopened state differs from the bootstrapped state")
	}
	if db2.Snapshot().Size() != size {
		t.Errorf("index size changed across reopen: %d vs %d", db2.Snapshot().Size(), size)
	}
}

func TestOpenEmptyDefaultsToRootOnly(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Shard(0).Snapshot()
	if snap.Data().NumNodes() != 1 || snap.Data().Root() == InvalidNode {
		t.Fatalf("want a single root node, got %d nodes", snap.Data().NumNodes())
	}
	if !db.Stats().Durable {
		t.Error("Open must report a durable store")
	}
}

// applyWorkload drives the same mixed write sequence against any DB so
// the recovery tests can compare a recovered store with a crash-free
// twin op for op.
func applyWorkload(t *testing.T, db *DB, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // single insert via script path
			g := db.Shard(0).idx.Graph()
			if u, v, ok := gtest.RandomNonEdge(rng, g); ok {
				if err := db.InsertEdge(u, v, graph.IDRef); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		case 4, 5, 6: // edge batch
			ops := insertBatch(rng, db.Shard(0).idx.Graph(), 4)
			if len(ops) == 0 {
				continue
			}
			if err := db.ApplyBatch(ops); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		case 7: // node insert
			nodes := db.Shard(0).idx.Graph().Nodes()
			parent := nodes[rng.Intn(len(nodes))]
			if _, err := db.InsertNode("extra", parent); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		case 8: // subtree round trip: delete then re-graft
			nodes := db.Shard(0).idx.Graph().Nodes()
			victim := nodes[rng.Intn(len(nodes))]
			if victim == db.Shard(0).idx.Graph().Root() {
				continue
			}
			sg, err := db.DeleteSubtree(victim)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if _, err := db.AddSubgraph(sg); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		case 9: // script with several ops
			g := db.Shard(0).idx.Graph()
			var ops []ScriptOp
			for j := 0; j < 3; j++ {
				if u, v, ok := gtest.RandomNonEdge(rng, g); ok {
					ops = append(ops, ScriptOp{Kind: opscript.Insert, U: u, V: v, Edge: graph.IDRef})
				}
			}
			if len(ops) == 0 {
				continue
			}
			if _, err := db.ApplyScript(ops); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
}

// Recovery must reproduce the crash-free state bit-identically: a store
// that is abandoned without Close (journal only, no final snapshot)
// reopens to exactly the state of an in-memory twin that ran the same
// ops — NodeIDs, labels, edges and partition all equal.
func TestRecoveryBitIdentical(t *testing.T) {
	const seed, nops = 42, 120
	dir := t.TempDir()
	db, err := Open(dir, Options{
		Sync:         SyncAlways,
		CompactEvery: -1, // keep the whole tail in the journal
		Bootstrap:    xmarkBootstrap(48),
	})
	if err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, db, seed, nops)
	want := snapshotBytes(t, db.Shard(0).Snapshot())
	// Abandon without Close: the journal is the only record of the ops.
	if db.Stats().ReplayedRecords != 0 {
		t.Fatal("fresh store claims replayed records")
	}

	db2, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st := db2.Stats()
	if st.ReplayedRecords == 0 {
		t.Error("recovery replayed nothing; journal was lost")
	}
	if got := snapshotBytes(t, db2.Shard(0).Snapshot()); !bytes.Equal(got, want) {
		t.Error("recovered state differs from the pre-crash state")
	}
	if err := db2.Validate(); err != nil {
		t.Error(err)
	}

	// The crash-free twin: same bootstrap, same workload, no durability.
	g := datagen.XMark(datagen.DefaultXMark(48, 1, 2))
	twin := NewDB(oneindex.Build(g))
	applyWorkload(t, twin, seed, nops)
	if got := snapshotBytes(t, twin.Shard(0).Snapshot()); !bytes.Equal(got, want) {
		t.Error("crash-free twin state differs from the recovered state")
	}
}

// canonExtents is the order-insensitive partition fingerprint: extents
// sorted internally, the extent list sorted lexicographically. Snapshot
// persistence renumbers inode slots densely, so recovery through a
// mid-stream snapshot preserves the partition as a set of blocks but not
// the slot order; tests crossing a compaction boundary compare this form.
func canonExtents(s *Snapshot) [][]NodeID {
	var ext [][]NodeID
	for i := 0; i < s.Slots(); i++ {
		I := oneindex.INodeID(i)
		if !s.Live(I) {
			continue
		}
		e := append([]NodeID(nil), s.Extent(I)...)
		sort.Slice(e, func(a, b int) bool { return e[a] < e[b] })
		ext = append(ext, e)
	}
	sort.Slice(ext, func(a, b int) bool {
		x, y := ext[a], ext[b]
		for k := 0; k < len(x) && k < len(y); k++ {
			if x[k] != y[k] {
				return x[k] < y[k]
			}
		}
		return len(x) < len(y)
	})
	return ext
}

// assertSameState fails unless two snapshots hold the identical graph
// (NodeIDs, labels, values, edge lists in order) and the same partition
// up to slot renumbering.
func assertSameState(t *testing.T, a, b *Snapshot) {
	t.Helper()
	fa, fb := a.Data(), b.Data()
	if fa.Root() != fb.Root() || fa.MaxNodeID() != fb.MaxNodeID() || fa.NumNodes() != fb.NumNodes() {
		t.Fatalf("graph shape differs: root %d/%d max %d/%d live %d/%d",
			fa.Root(), fb.Root(), fa.MaxNodeID(), fb.MaxNodeID(), fa.NumNodes(), fb.NumNodes())
	}
	for v := NodeID(0); v < fa.MaxNodeID(); v++ {
		if fa.Alive(v) != fb.Alive(v) || fa.LabelName(v) != fb.LabelName(v) || fa.Value(v) != fb.Value(v) {
			t.Fatalf("node %d differs", v)
		}
		var ea, eb []graph.Edge
		fa.EachSucc(v, func(w NodeID, k EdgeKind) { ea = append(ea, graph.Edge{To: w, Kind: k}) })
		fb.EachSucc(v, func(w NodeID, k EdgeKind) { eb = append(eb, graph.Edge{To: w, Kind: k}) })
		if len(ea) != len(eb) {
			t.Fatalf("node %d edge count differs: %d vs %d", v, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("node %d edge %d differs: %v vs %v", v, i, ea[i], eb[i])
			}
		}
	}
	xa, xb := canonExtents(a), canonExtents(b)
	if len(xa) != len(xb) {
		t.Fatalf("partition block count differs: %d vs %d", len(xa), len(xb))
	}
	for i := range xa {
		if len(xa[i]) != len(xb[i]) {
			t.Fatalf("partition block %d size differs", i)
		}
		for j := range xa[i] {
			if xa[i][j] != xb[i][j] {
				t.Fatalf("partition block %d differs", i)
			}
		}
	}
}

// Background compaction must not change the recovered state, only how
// much journal the next Open replays.
func TestCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{CompactEvery: 8, Bootstrap: xmarkBootstrap(48)})
	if err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, db, 7, 100)
	if err := db.Close(); err != nil { // Close compacts: tail becomes empty
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Error("no compactions ran")
	}
	if st.CompactError != "" {
		t.Errorf("compaction failed: %s", st.CompactError)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Stats().ReplayedRecords; got != 0 {
		t.Errorf("clean Close left %d journal records to replay", got)
	}
	assertSameState(t, db.Shard(0).Snapshot(), db2.Shard(0).Snapshot())
}

// The compaction cadence counts journaled ops, not records: however the
// same writes are grouped, the compactor is poked after the same amount
// of journaled work — 4 records of 16 ops, or 64 of one.
func TestCompactionCadenceCountsOps(t *testing.T) {
	for _, tc := range []struct {
		name    string
		perRec  int
		records int
	}{{"16-op batches", 16, 4}, {"single ops", 1, 64}} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(t.TempDir(), Options{CompactEvery: 64, Bootstrap: xmarkBootstrap(48)})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(5))
			var ins []EdgeOp
			for len(ins) < tc.perRec {
				ins = insertBatch(rng, db.Shard(0).idx.Graph(), tc.perRec)
			}
			del := make([]EdgeOp, len(ins))
			for i, op := range ins {
				del[i] = graph.DeleteOp(op.U, op.V)
			}
			// Single ops go through InsertEdge/DeleteEdge (the script path:
			// weight = applied ops), batches through ApplyBatch.
			write := func(ops []EdgeOp) error {
				switch {
				case len(ops) > 1:
					return db.ApplyBatch(ops)
				case ops[0].Insert:
					return db.InsertEdge(ops[0].U, ops[0].V, graph.IDRef)
				}
				return db.DeleteEdge(ops[0].U, ops[0].V)
			}
			for rec := 1; rec <= tc.records; rec++ {
				ops := ins
				if rec%2 == 0 {
					ops = del
				}
				if err := write(ops); err != nil {
					t.Fatalf("record %d: %v", rec, err)
				}
				db.Shard(0).mu.Lock()
				pending := db.Shard(0).sinceSnap
				db.Shard(0).mu.Unlock()
				if want := rec * tc.perRec % 64; pending != want {
					t.Fatalf("after record %d: %d ops pending toward the cadence, want %d", rec, pending, want)
				}
			}
			// The poke landed on the last record; the compactor is a
			// background goroutine, so wait for its snapshot.
			for deadline := time.Now().Add(10 * time.Second); db.Stats().Compactions == 0; {
				if time.Now().After(deadline) {
					t.Fatalf("no compaction after %d records of %d ops", tc.records, tc.perRec)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestInMemoryDB(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(32, 1, 1))
	db := NewDB(oneindex.Build(g))
	if db.Stats().Durable {
		t.Error("NewDB must not report durable")
	}
	if err := db.Shard(0).Update(func(x Index) error { return nil }); err != nil {
		t.Errorf("Update on an in-memory DB: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	u, v, _ := gtest.RandomNonEdge(rng, db.Shard(0).idx.Graph())
	before := db.Shard(0).Snapshot()
	if err := db.InsertEdge(u, v, graph.IDRef); err != nil {
		t.Fatal(err)
	}
	if db.Shard(0).Snapshot() == before {
		t.Error("write did not publish a new snapshot")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertEdge(u, v, graph.IDRef); !errors.Is(err, ErrClosed) {
		t.Errorf("write after Close: want ErrClosed, got %v", err)
	}
}

// Every write path accepts an IDREF edge into the root, so the store's
// Validate must accept the result, over both index families.
func TestDBValidateAcceptsRootInEdge(t *testing.T) {
	for _, build := range []func(*Graph) Index{
		func(g *Graph) Index { return BuildOneIndex(g) },
		func(g *Graph) Index { return BuildAkIndex(g, 2) },
	} {
		g := NewGraph()
		r := g.AddRoot()
		a := g.AddNode("a")
		if err := g.AddEdge(r, a, Tree); err != nil {
			t.Fatal(err)
		}
		db := NewDB(build(g))
		if err := db.InsertEdge(a, r, IDRef); err != nil {
			t.Fatal(err)
		}
		if err := db.Validate(); err != nil {
			t.Errorf("%T: Validate rejected an accepted root in-edge: %v", db.Shard(0).idx, err)
		}
		if got := db.Eval(MustParsePath("/a/ROOT")); len(got) != 1 || got[0] != r {
			t.Errorf("%T: /a/ROOT = %v, want [%d]", db.Shard(0).idx, got, r)
		}
	}
}

func TestUpdateRejectedOnDurableDB(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ran := false
	if err := db.Shard(0).Update(func(x Index) error { ran = true; return nil }); err == nil {
		t.Error("Update on a durable DB must fail")
	}
	if ran {
		t.Error("Update ran fn despite refusing")
	}
}

func TestDeleteSubtreeSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways, CompactEvery: -1, Bootstrap: xmarkBootstrap(32)})
	if err != nil {
		t.Fatal(err)
	}
	var victim NodeID
	s := db.Shard(0).Snapshot()
	f := s.Data()
	f.EachSucc(f.Root(), func(w NodeID, kind EdgeKind) {
		if victim == 0 && kind == graph.Tree {
			victim = w
		}
	})
	if victim == 0 {
		t.Fatal("no subtree to delete")
	}
	if _, err := db.DeleteSubtree(victim); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, db.Shard(0).Snapshot())

	db2, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Shard(0).Snapshot().Data().Alive(victim) {
		t.Error("deleted subtree root came back after recovery")
	}
	if got := snapshotBytes(t, db2.Shard(0).Snapshot()); !bytes.Equal(got, want) {
		t.Error("recovered state differs after subtree deletion")
	}
}

func TestScriptAppliedPrefixJournaled(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways, CompactEvery: -1, Bootstrap: xmarkBootstrap(16)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	u, v, ok := gtest.RandomNonEdge(rng, db.Shard(0).idx.Graph())
	if !ok {
		t.Fatal("no non-edge available")
	}
	// Second op fails (duplicate edge): the applied prefix must commit
	// and be exactly what recovery reproduces.
	ops := []ScriptOp{
		{Kind: opscript.Insert, U: u, V: v, Edge: graph.IDRef},
		{Kind: opscript.Insert, U: u, V: v, Edge: graph.IDRef},
	}
	res, err := db.ApplyScript(ops)
	if err == nil || res.Applied != 1 {
		t.Fatalf("want 1 applied op + error, got %d, %v", res.Applied, err)
	}
	want := snapshotBytes(t, db.Shard(0).Snapshot())

	db2, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := snapshotBytes(t, db2.Shard(0).Snapshot()); !bytes.Equal(got, want) {
		t.Error("recovered state differs: applied prefix was not journaled exactly")
	}
}

func TestRejectedBatchJournalsNothing(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways, CompactEvery: -1, Bootstrap: xmarkBootstrap(16)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before := db.Stats()
	rng := rand.New(rand.NewSource(4))
	u, v, _ := gtest.RandomNonEdge(rng, db.Shard(0).idx.Graph())
	ops := []EdgeOp{
		{Insert: true, U: u, V: v, Kind: graph.IDRef},
		{Insert: true, U: u, V: v, Kind: graph.IDRef}, // duplicate: batch rejected
	}
	var be *BatchError
	if err := db.ApplyBatch(ops); !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if after := db.Stats(); after.JournalAppends != before.JournalAppends {
		t.Error("rejected batch reached the journal")
	}
}

// TestMalformedSubgraphRejected grafts subgraphs whose parts disagree,
// through AddSubgraph and through ApplyRecord of a subgraph record
// (a follower's path): each returns ErrBadSubgraph instead of panicking,
// and the seq, the journal, the graph's id space and every invariant stay
// as they were. The well-formed original then applies through both.
func TestMalformedSubgraphRejected(t *testing.T) {
	db, err := Open(t.TempDir(), Options{CompactEvery: -1, Bootstrap: xmarkBootstrap(16)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	root := db.Shard(0).idx.Graph().Root()
	// labels issues ids in the store's label space, as a DeleteSubtree
	// that cut nodes of these labels would have.
	labels := func(names []string) []graph.LabelID {
		ids := make([]graph.LabelID, len(names))
		for i, name := range names {
			ids[i] = db.labels.in.Intern(name)
		}
		return ids
	}
	good := func() *wal.SubgraphPayload {
		return &wal.SubgraphPayload{
			Labels:    []string{"item", "name"},
			Values:    []string{"", "x"},
			Edges:     [][2]int32{{0, 1}},
			EdgeKinds: []EdgeKind{graph.Tree},
			CrossIn:   []graph.CrossEdge{{Outside: root, Local: 0, Kind: graph.Tree}},
			CrossOut:  []graph.CrossEdge{{Outside: root, Local: 1, Kind: graph.IDRef}},
		}
	}
	for _, tc := range []struct {
		name string
		edit func(p *wal.SubgraphPayload)
	}{
		{"internal edge past the last node", func(p *wal.SubgraphPayload) { p.Edges[0][1] = 2 }},
		{"values shorter than labels", func(p *wal.SubgraphPayload) { p.Values = p.Values[:1] }},
		{"edge kinds shorter than edges", func(p *wal.SubgraphPayload) { p.EdgeKinds = nil }},
		{"cross-in local out of range", func(p *wal.SubgraphPayload) { p.CrossIn[0].Local = 5 }},
		{"cross-out local negative", func(p *wal.SubgraphPayload) { p.CrossOut[0].Local = -1 }},
	} {
		p := good()
		tc.edit(p)
		seq, appends, maxID := db.Shard(0).Seq(), db.Stats().JournalAppends, db.Shard(0).idx.Graph().MaxNodeID()
		sg := &Subgraph{Labels: labels(p.Labels), Values: p.Values, Edges: p.Edges, EdgeKinds: p.EdgeKinds, CrossIn: p.CrossIn, CrossOut: p.CrossOut}
		if _, err := db.AddSubgraph(sg); !errors.Is(err, ErrBadSubgraph) {
			t.Errorf("%s: AddSubgraph error %v, want ErrBadSubgraph", tc.name, err)
		}
		if err := db.Shard(0).ApplyRecord(&wal.Record{Seq: seq + 1, Kind: wal.RecSubgraph, Sub: p}); !errors.Is(err, ErrBadSubgraph) {
			t.Errorf("%s: ApplyRecord error %v, want ErrBadSubgraph", tc.name, err)
		}
		if db.Shard(0).Seq() != seq || db.Stats().JournalAppends != appends || db.Shard(0).idx.Graph().MaxNodeID() != maxID {
			t.Errorf("%s: seq %d→%d, journal appends %d→%d, id space %d→%d", tc.name,
				seq, db.Shard(0).Seq(), appends, db.Stats().JournalAppends, maxID, db.Shard(0).idx.Graph().MaxNodeID())
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	p := good()
	if err := db.Shard(0).ApplyRecord(&wal.Record{Seq: db.Shard(0).Seq() + 1, Kind: wal.RecSubgraph, Sub: p}); err != nil {
		t.Fatalf("well-formed record: %v", err)
	}
	sg := &Subgraph{Labels: labels(p.Labels), Values: p.Values, Edges: p.Edges, EdgeKinds: p.EdgeKinds, CrossIn: p.CrossIn, CrossOut: p.CrossOut}
	if _, err := db.AddSubgraph(sg); err != nil {
		t.Fatalf("well-formed subgraph: %v", err)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFallbackOnCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{CompactEvery: -1, Bootstrap: xmarkBootstrap(24)})
	if err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, db, 9, 40)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, db.Shard(0).Snapshot())

	// Corrupt the newest snapshot file; Open must fall back to the older
	// one and replay the journal over it.
	seqs, _, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 2 {
		t.Fatalf("want 2 snapshot files (initial + Close), got %d", len(seqs))
	}
	newest := filepath.Join(dir, snapName(seqs[len(seqs)-1]))
	if err := corruptFile(newest); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Stats().ReplayedRecords == 0 {
		t.Error("fallback open replayed nothing")
	}
	if got := snapshotBytes(t, db2.Shard(0).Snapshot()); !bytes.Equal(got, want) {
		t.Error("fallback recovery lost state")
	}
}

// The fallback path must stay sound once compaction has actually
// truncated the journal: compactOnce removes segments only below the
// *older* retained snapshot, so an unreadable newest snapshot still
// recovers the full state from predecessor + journal tail. Tiny segments
// force real segment rolls and real RemoveBelow deletions.
func TestSnapshotFallbackAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{
		CompactEvery: 8, SegmentBytes: 256, Bootstrap: xmarkBootstrap(24),
	})
	if err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, db, 21, 100)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	seqs, _, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("want newest + fallback snapshot on disk, got %d", len(seqs))
	}
	if err := corruptFile(filepath.Join(dir, snapName(seqs[1]))); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Stats().ReplayedRecords == 0 {
		t.Error("fallback open replayed nothing")
	}
	// Mid-history snapshots renumber inode slots densely (see
	// canonExtents), so compare canonically, not bit-for-bit.
	assertSameState(t, db.Shard(0).Snapshot(), db2.Shard(0).Snapshot())
	if err := db2.Validate(); err != nil {
		t.Error(err)
	}
}

// When the journal genuinely cannot reach back to the snapshot recovery
// starts from (here: the fallback snapshot with its oldest covering
// segment deleted), Open must fail loudly with wal.ErrGap instead of
// replaying only the surviving tail onto a too-old base. The test
// compacts by itself, between the two halves of its workload, so the
// snapshots and surviving segments do not depend on a background
// compactor's timing: Close then writes the second snapshot.
func TestOpenFailsOnJournalGap(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{
		CompactEvery: -1, SegmentBytes: 256, Bootstrap: xmarkBootstrap(24),
	})
	if err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, db, 22, 50)
	if err := db.Shard(0).compactOnce(); err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, db, 23, 50)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	seqs, _, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("want 2 snapshots, got %d", len(seqs))
	}
	if err := corruptFile(filepath.Join(dir, snapName(seqs[1]))); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, walSubdir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	if len(segs) < 2 {
		t.Fatalf("workload produced %d segments, need ≥ 2 for a gap", len(segs))
	}
	if err := os.Remove(segs[0]); err != nil { // the fallback's coverage
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{CompactEvery: -1}); !errors.Is(err, wal.ErrGap) {
		t.Fatalf("open on a gapped journal: want wal.ErrGap, got %v", err)
	}
}

// corruptFile flips a byte in the middle of the file.
func corruptFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	off := fi.Size() / 2
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		return err
	}
	b[0] ^= 0xff
	_, err = f.WriteAt(b, off)
	return err
}
