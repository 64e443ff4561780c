package structix

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/opscript"
	"structix/internal/wal"
)

// walSegments lists the store's journal segment files.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, walSubdir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no journal segments on disk")
	}
	return segs
}

// Crash-injection property: whatever damage a torn tail write leaves in
// the journal — truncation or garbled bytes at an arbitrary offset — the
// store recovers to the state after some prefix of the committed
// batches, never to a state with half a batch applied. Every commit here
// is one multi-op ApplyBatch, so any partial application would produce a
// fingerprint outside the recorded prefix set.
func TestCrashInjectionRecoversCommitPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1, Bootstrap: xmarkBootstrap(64)})
	if err != nil {
		t.Fatal(err)
	}

	// Record the fingerprint after bootstrap and after every commit: the
	// only states recovery is allowed to land on.
	rng := rand.New(rand.NewSource(11))
	prefixes := [][]byte{snapshotBytes(t, db.Shard(0).Snapshot())}
	const commits = 24
	for i := 0; i < commits; i++ {
		ops := insertBatch(rng, db.Shard(0).idx.Graph(), 4)
		if len(ops) < 2 {
			continue
		}
		if err := db.ApplyBatch(ops); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		prefixes = append(prefixes, snapshotBytes(t, db.Shard(0).Snapshot()))
	}
	if err := db.Sync(); err != nil { // settle the page-cache image, then "crash"
		t.Fatal(err)
	}

	segs := walSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("expected a single segment, got %d", len(segs))
	}
	seg := segs[0]
	orig, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) < 16 {
		t.Fatalf("journal implausibly small: %d bytes", len(orig))
	}

	inj := rand.New(rand.NewSource(13))
	for trial := 0; trial < 48; trial++ {
		damaged := append([]byte(nil), orig...)
		// Anywhere in the file, including the 8-byte segment magic: the
		// first trials sweep the magic region deterministically (a crash
		// during segment roll tears exactly there), the rest are random.
		off := inj.Intn(len(orig))
		if trial < 8 {
			off = trial
		}
		kind := "truncate"
		if trial%2 == 0 {
			damaged[off] ^= 0x40
			kind = "garble"
		} else {
			damaged = damaged[:off]
		}
		if err := os.WriteFile(seg, damaged, 0o644); err != nil {
			t.Fatal(err)
		}

		db2, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
		if err != nil {
			t.Fatalf("trial %d (%s at %d): open: %v", trial, kind, off, err)
		}
		if err := db2.Validate(); err != nil {
			t.Fatalf("trial %d (%s at %d): recovered store invalid: %v", trial, kind, off, err)
		}
		got := snapshotBytes(t, db2.Shard(0).Snapshot())
		match := -1
		for i, p := range prefixes {
			if string(got) == string(p) {
				match = i
				break
			}
		}
		if match < 0 {
			t.Fatalf("trial %d (%s at %d): recovered state matches no commit prefix (replayed %d records)",
				trial, kind, off, db2.Stats().ReplayedRecords)
		}
	}
	// Restore the intact journal: undamaged recovery must see everything.
	if err := os.WriteFile(seg, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, db3.Shard(0).Snapshot()); string(got) != string(prefixes[len(prefixes)-1]) {
		t.Fatal("intact journal did not recover the full committed state")
	}
}

// Sharded crash-injection property: each shard journals independently, so
// whatever damage a crash leaves across the per-shard WALs, every shard
// recovers to some prefix of ITS OWN committed parts — the shards need
// not agree on a depth, but none may land between commits. The
// single-shard input commits one batch per shard per round; the spanning
// input also commits, every other round, one batch that spans every
// shard, whose parts commit per shard (one such batch in two has a
// rejected part, which leaves its siblings committed). Each shard records
// a prefix after each of its own parts, so its legal states are exactly
// its recorded fingerprints.
func TestShardedCrashRecoversPerShardPrefixes(t *testing.T) {
	t.Run("single-shard", func(t *testing.T) { testShardedCrash(t, false) })
	t.Run("spanning", func(t *testing.T) { testShardedCrash(t, true) })
}

func testShardedCrash(t *testing.T, spanning bool) {
	dir := t.TempDir()
	const shards = 3
	boot := func() (*Database, error) { return &Database{Graph: shardForest(21, 9, 8)}, nil }
	sdb, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1, Shards: shards, Bootstrap: boot})
	if err != nil {
		t.Fatal(err)
	}
	m := sdb.Map()

	// Per-shard prefix fingerprints: bootstrap state, then one entry per
	// commit routed to that shard.
	prefixes := make([][][]byte, shards)
	for s := 0; s < shards; s++ {
		prefixes[s] = [][]byte{snapshotBytes(t, sdb.Shard(s).Snapshot())}
	}
	rng := rand.New(rand.NewSource(23))
	part := func(s int) []EdgeOp {
		local := insertBatch(rng, sdb.Shard(s).idx.Graph(), 4)
		ops := make([]EdgeOp, len(local))
		for i, op := range local {
			ops[i] = graph.InsertOp(m.ToGlobal(s, op.U), m.ToGlobal(s, op.V), op.Kind)
		}
		return ops
	}
	for round := 0; round < 8; round++ {
		if spanning && round%2 == 1 {
			var ops []EdgeOp
			for s := 0; s < shards; s++ {
				ops = append(ops, part(s)...)
			}
			rejected := -1 // the shard whose part is rejected, if any
			if round%4 == 3 && len(ops) > 0 {
				last := ops[len(ops)-1]
				rejected, _, _, _ = m.RouteEdge(last.U, last.V)
				ops = append(ops, last) // inserted twice: its shard's part is rejected
			}
			if err := sdb.ApplyBatch(ops); (err != nil) != (rejected >= 0) || rejected >= 0 && !errors.Is(err, graph.ErrEdgeExists) {
				t.Fatalf("round %d: spanning batch: %v (rejected part on shard %d)", round, err, rejected)
			}
			for s := 0; s < shards; s++ {
				if s != rejected {
					prefixes[s] = append(prefixes[s], snapshotBytes(t, sdb.Shard(s).Snapshot()))
				}
			}
			continue
		}
		for s := 0; s < shards; s++ {
			ops := part(s)
			if len(ops) < 2 {
				continue
			}
			if err := sdb.ApplyBatch(ops); err != nil {
				t.Fatalf("round %d shard %d: %v", round, s, err)
			}
			prefixes[s] = append(prefixes[s], snapshotBytes(t, sdb.Shard(s).Snapshot()))
		}
	}
	if err := sdb.Sync(); err != nil {
		t.Fatal(err)
	}

	segs := make([]string, shards)
	origs := make([][]byte, shards)
	for s := 0; s < shards; s++ {
		segs[s] = walSegments(t, filepath.Join(dir, shardDirName(s)))[0]
		orig, err := os.ReadFile(segs[s])
		if err != nil {
			t.Fatal(err)
		}
		if len(orig) < 16 {
			t.Fatalf("shard %d journal implausibly small: %d bytes", s, len(orig))
		}
		origs[s] = orig
	}

	inj := rand.New(rand.NewSource(29))
	for trial := 0; trial < 16; trial++ {
		// Damage every shard's journal independently: different offsets,
		// different kinds — the crash hit all of them at once.
		for s := 0; s < shards; s++ {
			damaged := append([]byte(nil), origs[s]...)
			off := inj.Intn(len(damaged))
			if (trial+s)%2 == 0 {
				damaged[off] ^= 0x40
			} else {
				damaged = damaged[:off]
			}
			if err := os.WriteFile(segs[s], damaged, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		sdb2, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		if err := sdb2.Validate(); err != nil {
			t.Fatalf("trial %d: recovered sharded store invalid: %v", trial, err)
		}
		for s := 0; s < shards; s++ {
			got := snapshotBytes(t, sdb2.Shard(s).Snapshot())
			match := -1
			for i, p := range prefixes[s] {
				if string(got) == string(p) {
					match = i
					break
				}
			}
			if match < 0 {
				t.Fatalf("trial %d: shard %d recovered outside its commit-prefix set (replayed %d records)",
					trial, s, sdb2.Shard(s).Stats().ReplayedRecords)
			}
		}
	}

	// Intact journals: every shard recovers its full committed state.
	for s := 0; s < shards; s++ {
		if err := os.WriteFile(segs[s], origs[s], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sdb3, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		if got := snapshotBytes(t, sdb3.Shard(s).Snapshot()); string(got) != string(prefixes[s][len(prefixes[s])-1]) {
			t.Fatalf("shard %d: intact journal did not recover the full committed state", s)
		}
	}
}

// Under fsync=always every acknowledged commit is on disk before the ack,
// so a crash that tears an *in-flight* (unacknowledged) append — garbage
// after the last acked frame — must recover exactly the acked state: the
// whole prefix, nothing less, nothing more.
func TestCrashTornAppendKeepsAckedState(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways, CompactEvery: -1, Bootstrap: xmarkBootstrap(64)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 8; i++ {
		ops := insertBatch(rng, db.Shard(0).idx.Graph(), 4)
		if len(ops) == 0 {
			continue
		}
		if err := db.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	acked := snapshotBytes(t, db.Shard(0).Snapshot())
	ackedSeq := db.Stats().AppliedSeq

	// The crash: a partial frame of junk lands after the last acked one.
	seg := walSegments(t, dir)[0]
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	junk := []byte{0x21, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := db2.Stats()
	if st.AppliedSeq != ackedSeq {
		t.Fatalf("recovered through seq %d, acked seq was %d", st.AppliedSeq, ackedSeq)
	}
	if st.TornBytesDropped != int64(len(junk)) {
		t.Fatalf("dropped %d torn bytes, injected %d", st.TornBytesDropped, len(junk))
	}
	if got := snapshotBytes(t, db2.Shard(0).Snapshot()); string(got) != string(acked) {
		t.Fatal("recovered state differs from the acked state")
	}
}

// A crash during a segment roll — between creating the segment file and
// durably writing its 8-byte magic — leaves a final segment shorter than
// the magic, or with garbled magic bytes. Recovery must discard it
// cleanly AND must not keep appending into a magic-less file: commits
// acked after such a recovery have to survive the *next* recovery too.
func TestTornSegmentMagicAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways, CompactEvery: -1, Bootstrap: xmarkBootstrap(64)})
	if err != nil {
		t.Fatal(err)
	}
	boot := snapshotBytes(t, db.Shard(0).Snapshot())
	rng := rand.New(rand.NewSource(29))
	if err := db.ApplyBatch(insertBatch(rng, db.Shard(0).idx.Graph(), 4)); err != nil {
		t.Fatal(err)
	}
	seg := walSegments(t, dir)[0]
	orig, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	damage := []struct {
		name  string
		bytes []byte
	}{
		{"empty file", nil},
		{"3-byte magic", orig[:3]},
		{"7-byte magic", orig[:7]},
		{"garbled magic", func() []byte {
			d := append([]byte(nil), orig...)
			d[2] ^= 0xff
			return d
		}()},
	}
	for _, dmg := range damage {
		if err := os.WriteFile(seg, dmg.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		// First recovery: the damaged segment carries nothing recoverable,
		// so the store lands on the bootstrap snapshot.
		db2, err := Open(dir, Options{Sync: SyncAlways, CompactEvery: -1})
		if err != nil {
			t.Fatalf("%s: open: %v", dmg.name, err)
		}
		if got := snapshotBytes(t, db2.Shard(0).Snapshot()); string(got) != string(boot) {
			t.Fatalf("%s: recovered state is not the snapshot state", dmg.name)
		}
		// Commit into the recovered store (fsync=always: acked == durable),
		// crash again without Close, and recover: the acked batch must be
		// there — i.e. the post-recovery journal is a well-formed segment.
		ops := insertBatch(rng, db2.Shard(0).idx.Graph(), 4)
		if len(ops) < 2 {
			t.Fatalf("%s: batch too small", dmg.name)
		}
		if err := db2.ApplyBatch(ops); err != nil {
			t.Fatalf("%s: commit after recovery: %v", dmg.name, err)
		}
		want := snapshotBytes(t, db2.Shard(0).Snapshot())
		db3, err := Open(dir, Options{CompactEvery: -1})
		if err != nil {
			t.Fatalf("%s: re-open: %v", dmg.name, err)
		}
		if err := db3.Validate(); err != nil {
			t.Fatalf("%s: recovered store invalid: %v", dmg.name, err)
		}
		if got := snapshotBytes(t, db3.Shard(0).Snapshot()); string(got) != string(want) {
			t.Fatalf("%s: acked commit lost across the second recovery", dmg.name)
		}
	}
}

// Satellite 1 pin: re-grafting a deleted subtree journals a subgraph
// frame carrying the full payload (label names, not interner ids), and
// replaying that frame reproduces the pre-crash state bit-identically.
func TestSubgraphFrameReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways, CompactEvery: -1, Bootstrap: xmarkBootstrap(64)})
	if err != nil {
		t.Fatal(err)
	}
	g := db.Shard(0).idx.Graph()
	victim := graph.InvalidNode
	for _, v := range g.Nodes() {
		hasChild := false
		g.EachSucc(v, func(w NodeID, kind graph.EdgeKind) {
			if kind == graph.Tree {
				hasChild = true
			}
		})
		if v != g.Root() && hasChild {
			victim = v
			break
		}
	}
	if victim == graph.InvalidNode {
		t.Fatal("no internal node to delete")
	}
	sg, err := db.DeleteSubtree(victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddSubgraph(sg); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, db.Shard(0).Snapshot())

	// The journal must carry the delete as a script record and the
	// re-graft as a full-payload subgraph record with as many nodes as
	// the subtree had.
	l, err := wal.Open(filepath.Join(dir, walSubdir), wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var sawDelSub, sawSubgraph bool
	err = l.Replay(1, func(rec *wal.Record) error {
		switch rec.Kind {
		case wal.RecScript:
			for _, op := range rec.Script {
				if op.Kind == opscript.DelSub {
					sawDelSub = true
				}
			}
		case wal.RecSubgraph:
			sawSubgraph = true
			if len(rec.Sub.Labels) != sg.NumNodes() {
				return fmt.Errorf("subgraph frame carries %d nodes, subtree had %d",
					len(rec.Sub.Labels), sg.NumNodes())
			}
			for _, name := range rec.Sub.Labels {
				if name == "" {
					return fmt.Errorf("subgraph frame carries an empty label name")
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if !sawDelSub || !sawSubgraph {
		t.Fatalf("journal missing frames: delsub script %v, subgraph payload %v", sawDelSub, sawSubgraph)
	}

	// Crash (no Close) and recover: replaying the subgraph frame must be
	// equivalent to the live AddSubgraph.
	db2, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, db2.Shard(0).Snapshot()); string(got) != string(want) {
		t.Fatal("recovered state differs after subgraph replay")
	}
}

// TestKill9Child is the re-exec body of TestKill9LosesNoAckedCommits: it
// opens the durable store named by the environment and inserts nodes as
// fast as it can under fsync=always, appending each acknowledged NodeID
// to the ack file only after the commit returns. It is skipped in a
// normal test run.
func TestKill9Child(t *testing.T) {
	dir := os.Getenv("STRUCTIX_KILL9_DIR")
	ackPath := os.Getenv("STRUCTIX_KILL9_ACK")
	if dir == "" || ackPath == "" {
		t.Skip("re-exec child only")
	}
	db, err := Open(dir, Options{Sync: SyncAlways, Bootstrap: xmarkBootstrap(32)})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := os.OpenFile(ackPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	root := db.Shard(0).idx.Graph().Root()
	for i := 0; i < 1_000_000; i++ { // the parent SIGKILLs us mid-loop
		id, err := db.InsertNode("crash", root)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(ack, "%d\n", id); err != nil {
			t.Fatal(err)
		}
	}
}

// kill -9 during a write-heavy run loses zero acknowledged commits under
// fsync=always: every NodeID the child acked before the SIGKILL must be
// present (with its label) after recovery.
func TestKill9LosesNoAckedCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash test skipped in -short")
	}
	dir := t.TempDir()
	ackPath := filepath.Join(t.TempDir(), "acked")

	cmd := exec.Command(os.Args[0], "-test.run=^TestKill9Child$")
	cmd.Env = append(os.Environ(),
		"STRUCTIX_KILL9_DIR="+dir,
		"STRUCTIX_KILL9_ACK="+ackPath)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait until the child has acked a healthy run of commits, then kill
	// it without warning.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if data, err := os.ReadFile(ackPath); err == nil {
			lines := 0
			for _, b := range data {
				if b == '\n' {
					lines++
				}
			}
			if lines >= 50 {
				break
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child never reached 50 acked commits")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL, no cleanup
		t.Fatal(err)
	}
	cmd.Wait() // reap; the kill makes this an error by design

	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	defer db.Close()
	if err := db.Validate(); err != nil {
		t.Fatalf("recovered store invalid: %v", err)
	}

	f, err := os.Open(ackPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g := db.Shard(0).idx.Graph()
	acked := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// A line is complete only if the child's write returned; the file
		// is line-buffered by us (one write per line), so every scanned
		// line is an acked commit.
		id, err := strconv.ParseInt(sc.Text(), 10, 32)
		if err != nil {
			t.Fatalf("malformed ack line %q", sc.Text())
		}
		if got := g.LabelName(NodeID(id)); got != "crash" {
			t.Fatalf("acked node %d lost in recovery (label %q)", id, got)
		}
		acked++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if acked < 50 {
		t.Fatalf("only %d acked commits on record, expected >= 50", acked)
	}
	// The child only added leaves under the root, which join one appended
	// inode: every inode of the bootstrap keeps the id Build gave it.
	boot, err := xmarkBootstrap(32)()
	if err != nil {
		t.Fatal(err)
	}
	built := oneindex.Build(boot.Graph)
	want, got := built.Freeze(boot.Graph.Freeze()), db.Shard(0).Snapshot()
	for i := INodeID(0); int(i) < want.Slots(); i++ {
		if !slices.Equal(got.Extent(i), want.Extent(i)) {
			t.Fatalf("recovered inode %d holds %v, Build numbered it %v", i, got.Extent(i), want.Extent(i))
		}
	}
	t.Logf("recovered all %d acked commits (replayed %d journal records)",
		acked, db.Stats().ReplayedRecords)
}
