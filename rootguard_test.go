package structix

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"structix/internal/datagen"
	"structix/internal/opscript"
	"structix/internal/wal"
)

// rootDeletes are the writes that name the graph root for deletion: the
// typed entry points and both script ops.
func rootDeletes(root NodeID, deleteNode func(NodeID) error, deleteSubtree func(NodeID) (*Subgraph, error),
	script func([]ScriptOp) (OpResult, error)) []error {
	_, subErr := deleteSubtree(root)
	_, nodeScriptErr := script([]ScriptOp{{Kind: ScriptDelNode, U: root}})
	_, subScriptErr := script([]ScriptOp{{Kind: ScriptDelSub, U: root}})
	return []error{deleteNode(root), subErr, nodeScriptErr, subScriptErr}
}

// TestDBRootDeletionRejected deletes the root of a store over each index
// family and of a durable store, which must still have it, with every
// person, after a reopen.
func TestDBRootDeletionRejected(t *testing.T) {
	persons := MustParsePath("//person")
	check := func(t *testing.T, db *DB, want int) {
		t.Helper()
		root := db.Shard(0).Snapshot().Data().Root()
		for i, err := range rootDeletes(root, db.DeleteNode, db.DeleteSubtree, db.ApplyScript) {
			if !errors.Is(err, ErrRootNode) {
				t.Fatalf("root deletion %d: %v, want ErrRootNode", i, err)
			}
		}
		if got := db.Count(persons); got != want || want == 0 {
			t.Fatalf("//person = %d after the rejected deletions, want %d", got, want)
		}
		if err := db.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, fam := range []struct {
		name string
		idx  func(*Graph) Index
	}{
		{"1-index", func(g *Graph) Index { return BuildOneIndex(g) }},
		{"A(2)", func(g *Graph) Index { return BuildAkIndex(g, 2) }},
	} {
		t.Run(fam.name, func(t *testing.T) {
			db := NewDB(fam.idx(datagen.XMark(datagen.DefaultXMark(48, 1, 2))))
			check(t, db, db.Count(persons))
		})
	}
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		db, err := Open(dir, Options{Bootstrap: xmarkBootstrap(48)})
		if err != nil {
			t.Fatal(err)
		}
		want := db.Count(persons)
		check(t, db, want)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if r := db.Shard(0).Snapshot().Data().Root(); r == InvalidNode {
			t.Fatal("reopened store has no root")
		}
		check(t, db, want)
	})
}

// TestShardedRootDeletionRejected deletes the global root of a 2-shard
// store: every shard keeps its root replica and the store every node.
func TestShardedRootDeletionRejected(t *testing.T) {
	sdb, _ := NewShardedDB(shardForest(3, 6, 5), 2)
	defer sdb.Close()
	all := MustParsePath("//*")
	want := sdb.Count(all)
	for i, err := range rootDeletes(sdb.GlobalRoot(), sdb.DeleteNode, sdb.DeleteSubtree, sdb.ApplyScript) {
		if !errors.Is(err, ErrRootNode) {
			t.Fatalf("root deletion %d: %v, want ErrRootNode", i, err)
		}
	}
	if got := sdb.Count(all); got != want {
		t.Fatalf("//* = %d after the rejected deletions, want %d", got, want)
	}
	if err := sdb.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyRootDeleteRecord replays a journal record that deletes the
// root, as a build without the root rule could have written: recovery and
// a follower's apply both stop at it with ErrRootNode, naming the record.
func TestLegacyRootDeleteRecord(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Bootstrap: xmarkBootstrap(48)})
	if err != nil {
		t.Fatal(err)
	}
	root := db.Shard(0).Snapshot().Data().Root()
	seq := db.Stats().AppliedSeq
	script := []opscript.Op{{Kind: opscript.DelNode, U: root}}

	// A follower refuses the record and keeps its root.
	err = db.Shard(0).ApplyRecord(&wal.Record{Seq: seq + 1, Kind: wal.RecScript, Script: script})
	if !errors.Is(err, ErrRootNode) || !strings.Contains(err.Error(), fmt.Sprintf("record %d", seq+1)) {
		t.Fatalf("ApplyRecord: %v, want ErrRootNode naming record %d", err, seq+1)
	}
	if r := db.Shard(0).Snapshot().Data().Root(); r != root {
		t.Fatalf("root %d after the refused record, want %d", r, root)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery stops at the same record in the journal.
	l, err := wal.Open(filepath.Join(dir, walSubdir), wal.Options{Policy: wal.SyncNone, FirstSeq: seq + 1})
	if err != nil {
		t.Fatal(err)
	}
	at, err := l.Append(&wal.Record{Kind: wal.RecScript, Script: script})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Options{}); err == nil {
		db.Close()
		t.Fatal("Open replayed a root deletion")
	}
	if !errors.Is(err, ErrRootNode) || !strings.Contains(err.Error(), fmt.Sprintf("record %d", at)) {
		t.Fatalf("Open: %v, want ErrRootNode naming record %d", err, at)
	}
}

// TestInsertNodeUnreachableParent adds a node under InvalidNode through
// the facade and through a 2-shard store: ErrDeadNode, and no node added
// (a sharded store once placed it on shard 0).
func TestInsertNodeUnreachableParent(t *testing.T) {
	db := NewDB(BuildOneIndex(datagen.XMark(datagen.DefaultXMark(16, 1, 2))))
	sdb, _ := NewShardedDB(shardForest(3, 6, 5), 2)
	defer sdb.Close()
	for name, s := range map[string]struct {
		insert func(string, NodeID) (NodeID, error)
		nodes  func() int
	}{
		"db": {db.InsertNode, func() int { return db.Shard(0).Snapshot().Data().NumNodes() }},
		"sharded": {sdb.InsertNode, func() int {
			return sdb.Shard(0).Snapshot().Data().NumNodes() + sdb.Shard(1).Snapshot().Data().NumNodes()
		}},
	} {
		nodes := s.nodes()
		if v, err := s.insert("x", InvalidNode); !errors.Is(err, ErrDeadNode) || v != InvalidNode {
			t.Fatalf("%s: InsertNode under InvalidNode = %d, %v; want ErrDeadNode", name, v, err)
		}
		if got := s.nodes(); got != nodes {
			t.Fatalf("%s: %d nodes after the rejected insert, want %d", name, got, nodes)
		}
	}
}

// TestLegacyUnreachableAddNodeRecord replays a journal record that adds a
// node under parent -1, as a build without the addnode rule could have
// written: a follower's apply and recovery both stop at it with
// ErrDeadNode, naming the record.
func TestLegacyUnreachableAddNodeRecord(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Bootstrap: xmarkBootstrap(16)})
	if err != nil {
		t.Fatal(err)
	}
	seq := db.Stats().AppliedSeq
	rec := &wal.Record{Seq: seq + 1, Kind: wal.RecScript, Script: []opscript.Op{{Kind: opscript.AddNode, Label: "x", V: InvalidNode}}}
	if err := db.Shard(0).ApplyRecord(rec); !errors.Is(err, ErrDeadNode) || !strings.Contains(err.Error(), fmt.Sprintf("record %d", seq+1)) {
		t.Fatalf("ApplyRecord: %v, want ErrDeadNode naming record %d", err, seq+1)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := wal.Open(filepath.Join(dir, walSubdir), wal.Options{Policy: wal.SyncNone, FirstSeq: seq + 1})
	if err != nil {
		t.Fatal(err)
	}
	rec.Seq = 0
	at, err := l.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Options{}); err == nil {
		db.Close()
		t.Fatal("Open replayed an addnode under parent -1")
	}
	if !errors.Is(err, ErrDeadNode) || !strings.Contains(err.Error(), fmt.Sprintf("record %d", at)) {
		t.Fatalf("Open: %v, want ErrDeadNode naming record %d", err, at)
	}
}
