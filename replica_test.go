package structix

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"structix/internal/gtest"
	"structix/internal/repl"
)

// replLeaderServer mounts the raw replication endpoints over a leader
// DB — the transport the serving layer wires up in production, reduced
// to its core for the lifecycle tests here.
func replLeaderServer(t *testing.T, db *DB) *httptest.Server {
	t.Helper()
	srv, _ := replLeaderServerStats(t, db)
	return srv
}

func replLeaderServerStats(t *testing.T, db *DB) (*httptest.Server, *repl.Leader) {
	t.Helper()
	ld := repl.NewLeader(db.Shard(0))
	ld.Heartbeat = 50 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc(repl.PathStream, ld.ServeStream)
	mux.HandleFunc(repl.PathSnapshot, ld.ServeSnapshot)
	mux.HandleFunc(repl.PathState, func(w http.ResponseWriter, r *http.Request) {
		ld.ServeState(w, r, db.Stats().SnapshotSeq)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, ld
}

func waitCaughtUp(t *testing.T, follower *DB, seq uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := follower.Shard(0).WaitForSeq(ctx, seq); err != nil {
		t.Fatalf("follower never reached seq %d (at %d): %v", seq, follower.Shard(0).Seq(), err)
	}
}

func TestFollowerBootstrapsAndTails(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, err := Open(leaderDir, Options{Bootstrap: xmarkBootstrap(64), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 3; i++ {
		if err := leader.ApplyBatch(insertBatch(rng, leader.Shard(0).idx.Graph(), 5)); err != nil {
			t.Fatal(err)
		}
	}
	srv := replLeaderServer(t, leader)

	follower, err := OpenFollower(followerDir, srv.URL, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	// Writes that land after the follower attached stream over.
	for i := 0; i < 4; i++ {
		if err := leader.ApplyBatch(insertBatch(rng, leader.Shard(0).idx.Graph(), 5)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, follower, leader.Shard(0).Seq())
	if got, want := snapshotBytes(t, follower.Shard(0).Snapshot()), snapshotBytes(t, leader.Shard(0).Snapshot()); string(got) != string(want) {
		t.Fatal("caught-up follower snapshot is not bit-identical to the leader's")
	}
	if follower.Shard(0).Seq() != leader.Shard(0).Seq() {
		t.Fatalf("follower seq %d != leader seq %d", follower.Shard(0).Seq(), leader.Shard(0).Seq())
	}

	// Writes on a follower fail typed, naming the leader.
	err = follower.ApplyBatch(insertBatch(rng, follower.Shard(0).idx.Graph(), 2))
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower write: %v, want ErrNotLeader", err)
	}
	var nle *NotLeaderError
	if !errors.As(err, &nle) || nle.Leader != srv.URL {
		t.Fatalf("follower write error does not name the leader: %v", err)
	}
	if _, err := follower.InsertNode("x", follower.Shard(0).Snapshot().Data().Root()); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("InsertNode on follower: %v, want ErrNotLeader", err)
	}

	// Lag stats read caught-up.
	st := follower.Shard(0).Follower().Stats()
	if st.LagSeq != 0 || st.State != "streaming" {
		t.Fatalf("caught-up follower stats: %+v", st)
	}
	if follower.Shard(0).LeaderURL() != srv.URL {
		t.Fatalf("LeaderURL = %q", follower.Shard(0).LeaderURL())
	}
}

// A follower bootstrapped from a freshly built leader serves the leader's
// breadth-first inode numbering, and keeps serving the leader's ids slot
// for slot once it has replayed the writes that followed.
func TestFollowerKeepsLeaderNumbering(t *testing.T) {
	leader, err := Open(t.TempDir(), Options{Bootstrap: xmarkBootstrap(64), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	srv := replLeaderServer(t, leader)
	follower, err := OpenFollower(t.TempDir(), srv.URL, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if d := gtest.BreadthFirstDiff(follower.Shard(0).Snapshot()); d != "" {
		t.Fatalf("bootstrapped follower not breadth-first: %s", d)
	}
	if d := gtest.SnapshotDiff(follower.Shard(0).Snapshot(), leader.Shard(0).Snapshot()); d != "" {
		t.Fatalf("bootstrapped follower differs from the leader: %s", d)
	}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 4; i++ {
		if err := leader.ApplyBatch(insertBatch(rng, leader.Shard(0).idx.Graph(), 5)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, follower, leader.Shard(0).Seq())
	if d := gtest.SnapshotDiff(follower.Shard(0).Snapshot(), leader.Shard(0).Snapshot()); d != "" {
		t.Fatalf("caught-up follower differs from the leader: %s", d)
	}
}

// TestFollowerRecoversLocallyAndResumes closes a follower, advances the
// leader, and reopens the same directory: recovery must come from the
// follower's own snapshot + WAL (no re-download) and the stream must
// resume from its last applied seq.
func TestFollowerRecoversLocallyAndResumes(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, err := Open(leaderDir, Options{Bootstrap: xmarkBootstrap(64), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	srv := replLeaderServer(t, leader)
	rng := rand.New(rand.NewSource(43))

	follower, err := OpenFollower(followerDir, srv.URL, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := leader.ApplyBatch(insertBatch(rng, leader.Shard(0).idx.Graph(), 4)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, follower, leader.Shard(0).Seq())
	resumeSeq := follower.Shard(0).Seq()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// The leader moves on while the follower is down.
	for i := 0; i < 3; i++ {
		if err := leader.ApplyBatch(insertBatch(rng, leader.Shard(0).idx.Graph(), 4)); err != nil {
			t.Fatal(err)
		}
	}

	follower, err = OpenFollower(followerDir, srv.URL, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if got := follower.Shard(0).Seq(); got < resumeSeq {
		t.Fatalf("reopened follower lost local state: seq %d < %d", got, resumeSeq)
	}
	waitCaughtUp(t, follower, leader.Shard(0).Seq())
	if got, want := snapshotBytes(t, follower.Shard(0).Snapshot()), snapshotBytes(t, leader.Shard(0).Snapshot()); string(got) != string(want) {
		t.Fatal("resumed follower diverged from the leader")
	}
}

// TestFollowerGapRebootstraps compacts the leader's journal past a
// stale follower's resume point and checks OpenFollower re-seeds from a
// fresh snapshot instead of failing with a gap.
func TestFollowerGapRebootstraps(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	// Tiny segments so compaction can actually drop journal prefixes
	// (truncation is whole-segment).
	leader, err := Open(leaderDir, Options{Bootstrap: xmarkBootstrap(64), CompactEvery: -1, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	srv := replLeaderServer(t, leader)
	rng := rand.New(rand.NewSource(47))

	follower, err := OpenFollower(followerDir, srv.URL, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, follower, leader.Shard(0).Seq())
	staleSeq := follower.Shard(0).Seq()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// Two write+compact rounds truncate the journal below the older of
	// the two retained snapshots — past the stale follower's position.
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			if err := leader.ApplyBatch(insertBatch(rng, leader.Shard(0).idx.Graph(), 4)); err != nil {
				t.Fatal(err)
			}
		}
		if err := leader.Shard(0).compactOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if oldest := leader.Shard(0).log.OldestSeq(); oldest <= staleSeq+1 {
		t.Fatalf("journal still reaches seq %d (oldest %d); the test needs a gap", staleSeq+1, oldest)
	}

	follower, err = OpenFollower(followerDir, srv.URL, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitCaughtUp(t, follower, leader.Shard(0).Seq())
	if got, want := snapshotBytes(t, follower.Shard(0).Snapshot()), snapshotBytes(t, leader.Shard(0).Snapshot()); string(got) != string(want) {
		t.Fatal("re-bootstrapped follower diverged from the leader")
	}
}

// TestKill9FollowerChild is the re-exec body of
// TestKill9FollowerRecoversAndResumes: it opens (or bootstraps) a
// follower under fsync=always and appends every seq the store publishes
// to the ack file — after publication, so each acked seq is applied,
// journaled, and on disk. The parent SIGKILLs it mid-stream. Skipped in
// a normal run.
func TestKill9FollowerChild(t *testing.T) {
	dir := os.Getenv("STRUCTIX_KILL9F_DIR")
	leaderURL := os.Getenv("STRUCTIX_KILL9F_LEADER")
	ackPath := os.Getenv("STRUCTIX_KILL9F_ACK")
	if dir == "" || leaderURL == "" || ackPath == "" {
		t.Skip("re-exec child only")
	}
	db, err := OpenFollower(dir, leaderURL, Options{Sync: SyncAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := os.OpenFile(ackPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for seq := db.Shard(0).Seq() + 1; ; seq++ { // the parent SIGKILLs us mid-loop
		if err := db.Shard(0).WaitForSeq(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(ack, "%d\n", seq); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKill9FollowerRecoversAndResumes SIGKILLs a follower process
// mid-stream while the leader keeps committing, then reopens the
// follower's directory in-process: recovery must come from the
// follower's own snapshot + WAL (covering every seq the child acked —
// commit-prefix semantics under fsync=always, with no snapshot
// re-download), and the resumed stream must catch the follower up to a
// state bit-identical to the leader's.
func TestKill9FollowerRecoversAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash test skipped in -short")
	}
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	ackPath := filepath.Join(t.TempDir(), "acked")
	leader, err := Open(leaderDir, Options{Bootstrap: xmarkBootstrap(64), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	srv, ld := replLeaderServerStats(t, leader)

	// A writer keeps the stream busy for the whole child lifetime.
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(59))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := leader.ApplyBatch(insertBatch(rng, leader.Shard(0).idx.Graph(), 3)); err != nil {
				t.Errorf("leader write: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	cmd := exec.Command(os.Args[0], "-test.run=^TestKill9FollowerChild$")
	cmd.Env = append(os.Environ(),
		"STRUCTIX_KILL9F_DIR="+followerDir,
		"STRUCTIX_KILL9F_LEADER="+srv.URL,
		"STRUCTIX_KILL9F_ACK="+ackPath)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(ackPath); err == nil {
			lines := 0
			for _, b := range data {
				if b == '\n' {
					lines++
				}
			}
			if lines >= 30 {
				break
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			close(stop)
			<-writerDone
			t.Fatal("child follower never acked 30 applied records")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL, no cleanup
		t.Fatal(err)
	}
	cmd.Wait() // reap; the kill makes this an error by design
	close(stop)
	<-writerDone

	// Every line fully written before the kill is an acked (published,
	// fsynced) seq; recovery must cover all of them.
	var lastAcked uint64
	data, err := os.ReadFile(ackPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		seq, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			continue // torn final line: not acked
		}
		if seq > lastAcked {
			lastAcked = seq
		}
	}
	if lastAcked == 0 {
		t.Fatal("no acked seqs on record")
	}
	snapshotsBefore := ld.Stats().SnapshotsServed

	follower, err := OpenFollower(followerDir, srv.URL, Options{CompactEvery: -1})
	if err != nil {
		t.Fatalf("reopen after kill -9: %v", err)
	}
	defer follower.Close()
	if got := follower.Shard(0).Seq(); got < lastAcked {
		t.Fatalf("recovery lost acked records: seq %d < last acked %d", got, lastAcked)
	}
	if err := follower.Validate(); err != nil {
		t.Fatalf("recovered follower invalid: %v", err)
	}
	if served := ld.Stats().SnapshotsServed; served != snapshotsBefore {
		t.Fatalf("reopen re-downloaded a snapshot (%d -> %d): recovery must come from the local WAL", snapshotsBefore, served)
	}
	waitCaughtUp(t, follower, leader.Shard(0).Seq())
	if got, want := snapshotBytes(t, follower.Shard(0).Snapshot()), snapshotBytes(t, leader.Shard(0).Snapshot()); string(got) != string(want) {
		t.Fatal("follower diverged from the leader after kill -9 recovery")
	}
	t.Logf("killed at acked seq %d, recovered to %d, caught up bit-identical at %d (replayed %d journal records)",
		lastAcked, follower.Shard(0).Seq(), leader.Shard(0).Seq(), follower.Stats().ReplayedRecords)
}

// TestWaitForSeqDeadline pins the read-your-writes wait contract: a seq
// the store already covers returns immediately, one it never reaches
// times out with the context's error.
func TestWaitForSeqDeadline(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Bootstrap: xmarkBootstrap(64), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(53))
	if err := db.ApplyBatch(insertBatch(rng, db.Shard(0).idx.Graph(), 3)); err != nil {
		t.Fatal(err)
	}
	if err := db.Shard(0).WaitForSeq(context.Background(), db.Shard(0).Seq()); err != nil {
		t.Fatalf("WaitForSeq(current): %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := db.Shard(0).WaitForSeq(ctx, db.Shard(0).Seq()+100); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitForSeq(future) = %v, want deadline exceeded", err)
	}
}
