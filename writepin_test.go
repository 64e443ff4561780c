package structix_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"structix"
	"structix/internal/maint"
	"structix/internal/opscript"
	"structix/internal/server"
	"structix/internal/wal"
)

// edgesOf is ops as an edge batch, when every op is an edge op — the
// record the server makes of a request.
func edgesOf(ops []structix.ScriptOp) ([]structix.EdgeOp, bool) {
	edges := make([]structix.EdgeOp, len(ops))
	for i, op := range ops {
		var ok bool
		if edges[i], ok = opscript.ToEdgeOp(op); !ok {
			return nil, false
		}
	}
	return edges, true
}

// globalIDs fails unless err, returned for ops (global ids), names only
// the caller's ids: a rejected op is the op the caller sent, and a node
// a refusal names is that op's node.
func globalIDs(t *testing.T, ops []structix.ScriptOp, err error) {
	t.Helper()
	var be *structix.BatchError
	var oe *opscript.OpError
	var ne *maint.NodeError
	switch {
	case errors.As(err, &be):
		if edges, _ := edgesOf(ops); be.Op != edges[be.OpIndex] {
			t.Errorf("%v: op %d is %v", err, be.OpIndex, edges[be.OpIndex])
		}
	case errors.As(err, &oe):
		if oe.Op != ops[oe.Index] {
			t.Errorf("%v: op %d is %+v", err, oe.Index, ops[oe.Index])
		}
	}
	if errors.As(err, &ne) && oe != nil && ne.Node != oe.Op.U && ne.Node != oe.Op.V {
		t.Errorf("%v: names node %d, not one of op %+v's", err, ne.Node, oe.Op)
	}
}

// writeDigest accumulates the three fingerprints TestWriteStreamPinned
// holds: every reply a write returned, the dnode→inode map of the
// published snapshot after every write, and the journal segment bytes.
type writeDigest struct{ replies, inodes, journal hash.Hash }

func newWriteDigest() *writeDigest {
	return &writeDigest{sha256.New(), sha256.New(), sha256.New()}
}

func (d *writeDigest) reply(format string, args ...any) {
	fmt.Fprintf(d.replies, format+"\n", args...)
}

// snapshot hashes every live inode slot: its id, label and extent.
func (d *writeDigest) snapshot(s *structix.Snapshot) {
	var buf []byte
	for i := structix.INodeID(0); int(i) < s.Slots(); i++ {
		if !s.Live(i) {
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(i))
		buf = append(buf, s.LabelName(i)...)
		for _, v := range s.Extent(i) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		d.inodes.Write(buf)
	}
}

// segments hashes the journal segment files under walDir in name order.
func (d *writeDigest) segments(t *testing.T, walDir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(walDir, "*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no journal segments in %s (%v)", walDir, err)
	}
	sort.Strings(names)
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		d.journal.Write(b)
	}
}

func (d *writeDigest) sums() [3]string {
	return [3]string{
		hex.EncodeToString(d.replies.Sum(nil)),
		hex.EncodeToString(d.inodes.Sum(nil)),
		hex.EncodeToString(d.journal.Sum(nil)),
	}
}

func pinBootstrap() (*structix.Database, error) {
	return &structix.Database{Graph: structix.GenerateXMark(structix.DefaultXMark(40, 1, 5))}, nil
}

// pinForest is a root over 24 small components, each a person and an
// open auction under a top node: enough to spread over two shards.
func pinForest() (*structix.Database, error) {
	g := structix.NewGraph()
	root := g.AddRoot()
	for i := 0; i < 24; i++ {
		top := g.AddNode([]string{"a", "b", "c"}[i%3])
		g.AddEdge(root, top, structix.Tree)
		for _, l := range []string{"person", "open_auction"} {
			v := g.AddNode(l)
			g.AddEdge(top, v, structix.Tree)
			g.AddEdge(v, g.AddNode("name"), structix.Tree)
		}
	}
	return &structix.Database{Graph: g}, nil
}

// TestWriteStreamPinned drives a fixed stream through every write entry
// point of a durable one-shard DB and of a durable 2-shard DB — edge batches
// (one rejected), a script that stops part-way, the single edge and node
// ops, subtree cuts and re-grafts — plus one coalesced server window with
// a rejected member, and pins the SHA-256 of the replies, of the inode
// map after every write and of the journal segments. The digests were
// recorded before every store write became one journal record applied by
// one function; the sharded one again when a record spanning shards began
// to commit per shard, the server's rule (the rejected two-shard batch now
// commits its shard-0 part) and refusals began to name global ids. The db
// replies once more when one store type took over both: a cut's LabelIDs
// are in the store's own label space, and the second cut and graft go
// through DeleteSubtree and AddSubgraph (the *Named forms are gone).
func TestWriteStreamPinned(t *testing.T) {
	want := map[string][3]string{
		"db": {
			"cb2c185e837b41ea728333aaeece8468e0bfe712c7b5fc26d7abb13c41a97f68",
			"657e3657275bfe31c93b0f0205d8a23799e129f0335514168bb945047e455744",
			"b74bc722898717fc13d92b96b41eece692f59f6cf64a45c43af0bb888318ab89",
		},
		"sharded": {
			"d41cd3fdc360ad9df0b7d3118f34c59176e10f8d131ae4de0ab14fc7253860d8",
			"044d3fe6b1d867407d329ad12258a214073a75eedacbcb3388ba6afd9c9beda5",
			"611ce0f4eba3c93da004be288685705ee6d9b863a7794fd0bcc0bb653e99edf9",
		},
		"window": {
			"516eede0c9d6d6d9d182439253f6425fee84fab88c823664232911e3fb454510",
			"020528f31acdb89103b9bcc49bd8ec153807906418479fc159880e4e77351e36",
			"3c0c9b99946d530a461272f3a1139d0e1add067b9e394a419a454af020b893b3",
		},
	}
	check := func(t *testing.T, name string, d *writeDigest) {
		t.Helper()
		got := d.sums()
		for i, what := range []string{"replies", "inodes", "journal"} {
			if got[i] != want[name][i] {
				t.Errorf("%s digest %s, pinned %s", what, got[i], want[name][i])
			}
		}
	}

	t.Run("db", func(t *testing.T) {
		dir := t.TempDir()
		db, err := structix.Open(dir, structix.Options{Sync: structix.SyncNone, CompactEvery: -1, Bootstrap: pinBootstrap})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		d := newWriteDigest()
		step := func(format string, args ...any) {
			d.reply(format, args...)
			d.snapshot(db.Shard(0).Snapshot())
		}
		ps := db.Eval(structix.MustParsePath("//person"))
		as := db.Eval(structix.MustParsePath("//open_auction"))
		ref := func(i int) structix.EdgeOp { return structix.InsertOp(ps[i], as[i], structix.IDRef) }

		step("batch %v", db.ApplyBatch([]structix.EdgeOp{ref(0), ref(1), ref(2), ref(3)}))
		step("rejected batch %v", db.ApplyBatch([]structix.EdgeOp{ref(4), ref(1), ref(5)}))
		res, err := db.ApplyScript([]structix.ScriptOp{
			{Kind: structix.ScriptDelete, U: ps[0], V: as[0]},
			{Kind: structix.ScriptAddNode, Label: "note", V: ps[1]},
			{Kind: structix.ScriptInsert, U: ps[6], V: as[6], Edge: structix.IDRef},
		})
		step("script %+v %v", res, err)
		res, err = db.ApplyScript([]structix.ScriptOp{
			{Kind: structix.ScriptInsert, U: ps[7], V: as[7], Edge: structix.IDRef},
			{Kind: structix.ScriptInsert, U: ps[7], V: as[7], Edge: structix.IDRef},
			{Kind: structix.ScriptInsert, U: ps[8], V: as[8], Edge: structix.IDRef},
		})
		step("stopped script %+v %v", res, err)
		step("insert edge %v", db.InsertEdge(ps[9], as[9], structix.IDRef))
		step("insert edge again %v", db.InsertEdge(ps[9], as[9], structix.IDRef))
		step("delete edge %v", db.DeleteEdge(ps[1], as[1]))
		step("delete missing edge %v", db.DeleteEdge(ps[1], as[1]))
		v, err := db.InsertNode("memo", ps[2])
		step("insert node %d %v", v, err)
		w, err := db.InsertNode("memo", v)
		step("insert node below %d %v", w, err)
		step("delete node %v", db.DeleteNode(w))
		step("delete dead node %v", db.DeleteNode(w))
		sg, err := db.DeleteSubtree(ps[3])
		step("cut %+v %v", sg, err)
		ids, err := db.AddSubgraph(sg)
		step("graft %v %v", ids, err)
		sg, err = db.DeleteSubtree(ps[4])
		step("cut again %+v %v", sg, err)
		ids, err = db.AddSubgraph(sg)
		step("graft again %v %v", ids, err)
		_, err = db.DeleteSubtree(ps[4])
		step("cut dead %v", err)

		d.segments(t, filepath.Join(dir, "wal"))
		if err := db.Validate(); err != nil {
			t.Fatal(err)
		}
		check(t, "db", d)
	})

	t.Run("sharded", func(t *testing.T) {
		dir := t.TempDir()
		sdb, err := structix.Open(dir, structix.Options{Shards: 2, Sync: structix.SyncNone, CompactEvery: -1, Bootstrap: pinForest})
		if err != nil {
			t.Fatal(err)
		}
		defer sdb.Close()
		d := newWriteDigest()
		step := func(format string, args ...any) {
			d.reply(format, args...)
			for s := 0; s < sdb.NumShards(); s++ {
				d.snapshot(sdb.Shard(s).Snapshot())
			}
		}
		r := sdb.Map().Router()
		// Pair each component's person with its open auction; the pair
		// lives on the component's shard.
		ps := sdb.Eval(structix.MustParsePath("//person"))
		as := sdb.Eval(structix.MustParsePath("//open_auction"))
		var on [2][]int // pair indexes per shard
		for i, p := range ps {
			on[r.ShardOf(p)] = append(on[r.ShardOf(p)], i)
		}
		if len(ps) != len(as) || len(on[0]) < 6 || len(on[1]) < 6 {
			t.Fatalf("%d persons, %d auctions, pairs per shard %d/%d", len(ps), len(as), len(on[0]), len(on[1]))
		}
		ref := func(s, i int) structix.EdgeOp {
			j := on[s][i]
			return structix.InsertOp(ps[j], as[j], structix.IDRef)
		}

		step("one-shard batch %v", sdb.ApplyBatch([]structix.EdgeOp{ref(0, 0), ref(0, 1)}))
		step("two-shard batch %v", sdb.ApplyBatch([]structix.EdgeOp{ref(1, 0), ref(0, 2), ref(1, 1)}))
		step("rejected two-shard batch %v", sdb.ApplyBatch([]structix.EdgeOp{ref(0, 3), ref(1, 2), ref(1, 0)}))
		step("cross-shard batch %v", sdb.ApplyBatch([]structix.EdgeOp{structix.InsertOp(ps[on[0][4]], as[on[1][4]], structix.IDRef)}))
		e := ref(1, 3)
		res, err := sdb.ApplyScript([]structix.ScriptOp{
			{Kind: structix.ScriptInsert, U: e.U, V: e.V, Edge: structix.IDRef},
			{Kind: structix.ScriptInsert, U: e.U, V: e.V, Edge: structix.IDRef},
			{Kind: structix.ScriptAddNode, Label: "note", V: e.U},
		})
		step("stopped script %+v %v", res, err)
		e = ref(0, 5)
		step("insert edge %v", sdb.InsertEdge(e.U, e.V, structix.IDRef))
		step("delete edge %v", sdb.DeleteEdge(e.U, e.V))
		step("delete missing edge %v", sdb.DeleteEdge(e.U, e.V))
		top, err := sdb.InsertNode("annex", sdb.GlobalRoot())
		step("insert top node %d %v", top, err)
		v, err := sdb.InsertNode("memo", top)
		step("insert node %d %v", v, err)
		step("delete node %v", sdb.DeleteNode(v))
		step("delete dead node %v", sdb.DeleteNode(v))
		sg, err := sdb.DeleteSubtree(ps[on[1][5]])
		step("cut %+v %v", sg, err)
		ids, err := sdb.AddSubgraph(sg)
		step("graft %v %v", ids, err)

		for s := 0; s < sdb.NumShards(); s++ {
			d.segments(t, filepath.Join(dir, fmt.Sprintf("shard-%02d", s), "wal"))
		}
		if err := sdb.Validate(); err != nil {
			t.Fatal(err)
		}
		check(t, "sharded", d)
	})

	// The edge and script part of the sharded stream, plus a script whose
	// ops disagree on a shard, through the facade and through the server
	// over an identical store: one cross-shard rule means equal outcomes
	// (applied counts, error texts — op indexes, ops and causes) and
	// byte-identical per-shard journals and inode maps.
	t.Run("sharded-server", func(t *testing.T) {
		type outcome struct {
			applied int
			nodes   []structix.NodeID
			err     string
		}
		type frontEnd struct {
			sdb   *structix.DB
			dir   string
			d     *writeDigest
			write func(ops []structix.ScriptOp) outcome
		}
		open := func() *frontEnd {
			dir := t.TempDir()
			sdb, err := structix.Open(dir, structix.Options{Shards: 2, Sync: structix.SyncNone, CompactEvery: -1, Bootstrap: pinForest})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sdb.Close() })
			return &frontEnd{sdb: sdb, dir: dir, d: newWriteDigest()}
		}
		fac, srv := open(), open()
		fac.write = func(ops []structix.ScriptOp) outcome {
			rec := &wal.Record{Kind: wal.RecScript, Script: ops}
			if edges, ok := edgesOf(ops); ok {
				rec = &wal.Record{Kind: wal.RecEdges, Edges: edges}
			}
			res, err := fac.sdb.WriteRecord(rec)
			o := outcome{applied: res.Applied, nodes: res.NewNodes}
			if err != nil {
				o.err = err.Error()
				globalIDs(t, ops, err)
			}
			return o
		}
		s := server.New(srv.sdb, server.Config{})
		defer s.Shutdown(context.Background())
		srv.write = func(ops []structix.ScriptOp) outcome {
			b, err := json.Marshal(server.UpdateRequest{Ops: ops})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader(string(b))))
			if rec.Code == http.StatusOK {
				var rep server.UpdateReply
				if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
					t.Fatal(err)
				}
				return outcome{applied: rep.Applied, nodes: rep.NewNodes}
			}
			var rep server.ErrorReply
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rec.Code != http.StatusConflict {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			return outcome{applied: rep.Applied, err: rep.Error}
		}

		r := fac.sdb.Map().Router()
		ps := fac.sdb.Eval(structix.MustParsePath("//person"))
		as := fac.sdb.Eval(structix.MustParsePath("//open_auction"))
		var on [2][]int
		for i, p := range ps {
			on[r.ShardOf(p)] = append(on[r.ShardOf(p)], i)
		}
		ins := func(s, i int) structix.ScriptOp {
			j := on[s][i]
			return structix.ScriptOp{Kind: structix.ScriptInsert, U: ps[j], V: as[j], Edge: structix.IDRef}
		}
		del := func(s, i int) structix.ScriptOp {
			op := ins(s, i)
			return structix.ScriptOp{Kind: structix.ScriptDelete, U: op.U, V: op.V}
		}
		var top, v structix.NodeID
		steps := []struct {
			name string
			ops  func() []structix.ScriptOp
			then func(o outcome)
		}{
			{"one-shard batch", func() []structix.ScriptOp { return []structix.ScriptOp{ins(0, 0), ins(0, 1)} }, nil},
			{"two-shard batch", func() []structix.ScriptOp { return []structix.ScriptOp{ins(1, 0), ins(0, 2), ins(1, 1)} }, nil},
			{"rejected two-shard batch", func() []structix.ScriptOp { return []structix.ScriptOp{ins(0, 3), ins(1, 2), ins(1, 0)} }, nil},
			{"cross-shard batch", func() []structix.ScriptOp {
				return []structix.ScriptOp{{Kind: structix.ScriptInsert, U: ps[on[0][4]], V: as[on[1][4]], Edge: structix.IDRef}}
			}, nil},
			{"stopped script", func() []structix.ScriptOp {
				e := ins(1, 3)
				return []structix.ScriptOp{e, e, {Kind: structix.ScriptAddNode, Label: "note", V: e.U}}
			}, nil},
			{"cross-shard script", func() []structix.ScriptOp {
				return []structix.ScriptOp{ins(0, 5), {Kind: structix.ScriptAddNode, Label: "note", V: ps[on[1][5]]}}
			}, nil},
			{"insert edge", func() []structix.ScriptOp { return []structix.ScriptOp{ins(0, 5)} }, nil},
			{"delete edge", func() []structix.ScriptOp { return []structix.ScriptOp{del(0, 5)} }, nil},
			{"delete missing edge", func() []structix.ScriptOp { return []structix.ScriptOp{del(0, 5)} }, nil},
			{"insert top node", func() []structix.ScriptOp {
				return []structix.ScriptOp{{Kind: structix.ScriptAddNode, Label: "annex", V: fac.sdb.GlobalRoot()}}
			}, func(o outcome) { top = o.nodes[0] }},
			{"insert node", func() []structix.ScriptOp {
				return []structix.ScriptOp{{Kind: structix.ScriptAddNode, Label: "memo", V: top}}
			}, func(o outcome) { v = o.nodes[0] }},
			{"delete node", func() []structix.ScriptOp { return []structix.ScriptOp{{Kind: structix.ScriptDelNode, U: v}} }, nil},
			{"delete dead node", func() []structix.ScriptOp { return []structix.ScriptOp{{Kind: structix.ScriptDelNode, U: v}} }, nil},
		}
		for _, st := range steps {
			ops := st.ops()
			got := [2]outcome{fac.write(ops), srv.write(ops)}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("%s: facade %+v, server %+v", st.name, got[0], got[1])
			}
			for _, fe := range []*frontEnd{fac, srv} {
				for sh := 0; sh < fe.sdb.NumShards(); sh++ {
					fe.d.snapshot(fe.sdb.Shard(sh).Snapshot())
				}
			}
			if st.then != nil {
				st.then(got[0])
			}
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, fe := range []*frontEnd{fac, srv} {
			for sh := 0; sh < fe.sdb.NumShards(); sh++ {
				fe.d.segments(t, filepath.Join(fe.dir, fmt.Sprintf("shard-%02d", sh), "wal"))
			}
			if err := fe.sdb.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		if f, g := fac.d.sums(), srv.d.sums(); f[1] != g[1] || f[2] != g[2] {
			t.Errorf("inode maps or journals differ: facade %v, server %v", f[1:], g[1:])
		}
	})

	t.Run("window", func(t *testing.T) {
		g, _ := pinBootstrap()
		db := structix.NewDB(structix.BuildOneIndex(g.Graph))
		srv := server.New(db, server.Config{})
		defer srv.Shutdown(context.Background())
		h := srv.Handler()
		d := newWriteDigest()
		ps := db.Eval(structix.MustParsePath("//person"))
		as := db.Eval(structix.MustParsePath("//open_auction"))
		body := func(pairs ...int) string {
			ops := make([]string, 0, len(pairs))
			for _, i := range pairs {
				ops = append(ops, fmt.Sprintf(`{"op":"insert","u":%d,"v":%d,"kind":"idref"}`, ps[i], as[i]))
			}
			return `{"ops":[` + strings.Join(ops, ",") + `]}`
		}
		stats := func() server.StatsReply {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
			var st server.StatsReply
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			return st
		}
		waitFor := func(what string, ok func(server.StatsReply) bool) {
			for deadline := time.Now().Add(10 * time.Second); !ok(stats()); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for %s", what)
				}
			}
		}
		post := func(b string) <-chan string {
			out := make(chan string, 1)
			go func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader(b)))
				out <- fmt.Sprintf("%d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
			}()
			return out
		}

		// Hold the store's writer lock so the committer stalls on the first
		// request while the next three queue up behind it, in order: they
		// then commit as one window whose middle member is rejected.
		held, release := make(chan struct{}), make(chan struct{})
		go db.Shard(0).Update(func(structix.Index) error { close(held); <-release; return nil })
		<-held
		first := post(body(0, 1))
		waitFor("the first window to start", func(st server.StatsReply) bool { return st.QueueWaitP50Us > 0 && st.QueueDepth == 0 })
		var rest []<-chan string
		for i, b := range []string{body(2, 3), body(4, 0), body(5)} {
			rest = append(rest, post(b))
			waitFor("a queued request", func(st server.StatsReply) bool { return st.QueueDepth == i+1 })
		}
		close(release)
		d.reply("first %s", <-first)
		for i, c := range rest {
			d.reply("member %d %s", i, <-c)
		}
		d.snapshot(db.Shard(0).Snapshot())
		d.journal.Write([]byte("in-memory"))
		if err := db.Validate(); err != nil {
			t.Fatal(err)
		}
		check(t, "window", d)
	})
}
