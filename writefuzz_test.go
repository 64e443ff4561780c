package structix

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"structix/internal/gtest"
)

// fuzzWrites runs the write stream data spells out on db, through every
// public write of the store. Each step takes one byte for the entry point
// and more for its operands; node operands range over every id the graph
// ever held plus InvalidNode, so dead nodes, the root and -1 all turn up.
func fuzzWrites(db *DB, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	node := func() NodeID {
		n := int(db.Shard(0).Snapshot().Data().MaxNodeID()) + 1
		return NodeID(int(next())%n) - 1
	}
	labels := []string{"person", "item", "note"}
	scriptOp := func() ScriptOp {
		switch next() % 5 {
		case 0:
			return ScriptOp{Kind: ScriptInsert, U: node(), V: node(), Edge: EdgeKind(next() % 2)}
		case 1:
			return ScriptOp{Kind: ScriptDelete, U: node(), V: node()}
		case 2:
			return ScriptOp{Kind: ScriptAddNode, Label: labels[next()%3], V: node()}
		case 3:
			return ScriptOp{Kind: ScriptDelNode, U: node()}
		}
		return ScriptOp{Kind: ScriptDelSub, U: node()}
	}
	var cut *Subgraph
	for len(data) > 0 {
		switch next() % 7 {
		case 0:
			ops := make([]EdgeOp, 1+next()%3)
			for i := range ops {
				if u, v := node(), node(); next()%3 == 0 {
					ops[i] = DeleteOp(u, v)
				} else {
					ops[i] = InsertOp(u, v, IDRef)
				}
			}
			db.ApplyBatch(ops)
		case 1:
			ops := make([]ScriptOp, 1+next()%3)
			for i := range ops {
				ops[i] = scriptOp()
			}
			db.ApplyScript(ops)
		case 2:
			db.InsertEdge(node(), node(), EdgeKind(next()%2))
		case 3:
			db.DeleteEdge(node(), node())
		case 4:
			db.InsertNode(labels[next()%3], node())
		case 5:
			if sg, err := db.DeleteSubtree(node()); err == nil {
				cut = sg
			}
		case 6:
			if cut != nil {
				db.AddSubgraph(cut)
				cut = nil
			} else {
				db.DeleteNode(node())
			}
		}
	}
}

// journalBytes concatenates the journal segments of the store in dir.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, walSubdir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var b []byte
	for _, n := range names { // Glob sorts; segment names are fixed-width
		seg, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, seg...)
	}
	return b
}

// FuzzWriteRecord checks that the leader, a follower and recovery agree on
// every write stream: the stream runs on a durable leader, the leader's
// journal records feed a second store through ApplyRecord, and the leader
// is closed and reopened from its journal alone (its newest snapshot is
// removed, so Open replays every record over the bootstrap snapshot). The
// three published snapshots must be equal, and the follower's journal
// byte-identical to the leader's.
func FuzzWriteRecord(f *testing.F) {
	f.Add([]byte{0, 2, 9, 40, 1, 1, 3, 2, 1, 30, 4, 5, 2, 6, 1, 6})
	f.Add([]byte{5, 12, 6, 1, 2, 0, 7, 20, 2, 2, 70, 3, 90, 4, 0, 1, 1, 0})
	f.Add([]byte{4, 0, 255, 3, 2, 1, 1, 0, 5, 3, 8, 2, 2, 200, 1, 0, 5, 4, 6})
	f.Add([]byte{1, 2, 2, 1, 0, 3, 40, 4, 50, 1, 0, 2, 1, 0})
	opts := Options{Sync: SyncNone, CompactEvery: -1, Bootstrap: func() (*Database, error) {
		g, _, _, _ := gtest.Fig2()
		return &Database{Graph: g}, nil
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		ldir, fdir := t.TempDir(), t.TempDir()
		leader, err := Open(ldir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer leader.Close()
		follower, err := Open(fdir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Close()

		fuzzWrites(leader, data)
		if err := leader.Shard(0).Journal().Replay(1, follower.Shard(0).ApplyRecord); err != nil {
			t.Fatalf("follower: %v", err)
		}
		want := leader.Shard(0).Snapshot()
		if d := gtest.SnapshotDiff(want, follower.Shard(0).Snapshot()); d != "" {
			t.Fatalf("follower snapshot differs from the leader's: %s", d)
		}
		if !bytes.Equal(journalBytes(t, ldir), journalBytes(t, fdir)) {
			t.Fatal("follower journal differs from the leader's")
		}

		if err := leader.Close(); err != nil {
			t.Fatal(err)
		}
		seqs, _, err := listSnapshots(ldir)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs[1:] {
			if err := os.Remove(filepath.Join(ldir, snapName(seq))); err != nil {
				t.Fatal(err)
			}
		}
		recovered, err := Open(ldir, Options{Sync: SyncNone, CompactEvery: -1})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer recovered.Close()
		if recovered.Stats().ReplayedRecords != int(leader.Shard(0).appliedSeq.Load()) {
			t.Fatalf("recovery replayed %d records, the leader journaled %d", recovered.Stats().ReplayedRecords, leader.Shard(0).appliedSeq.Load())
		}
		if d := gtest.SnapshotDiff(want, recovered.Shard(0).Snapshot()); d != "" {
			t.Fatalf("recovered snapshot differs from the leader's: %s", d)
		}
		if err := recovered.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
