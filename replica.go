package structix

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"structix/internal/persist"
	"structix/internal/repl"
	"structix/internal/wal"
)

// ErrNotLeader is the sentinel behind *NotLeaderError: matched by
// errors.Is when a write lands on a read-only replica.
var ErrNotLeader = errors.New("structix: not the leader")

// NotLeaderError rejects a write on a follower and names the leader the
// caller should redirect to. errors.Is(err, ErrNotLeader) matches it.
type NotLeaderError struct {
	// Leader is the leader's base URL.
	Leader string
}

func (e *NotLeaderError) Error() string {
	return fmt.Sprintf("structix: read-only replica: writes go to the leader at %s", e.Leader)
}

func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// OpenFollower opens dir as a read replica of the leader at leaderURL.
//
// A fresh directory bootstraps from a leader snapshot download; an
// existing one recovers locally (newest snapshot + its own journal
// tail) exactly like Open, then resumes the leader's frame stream from
// its last applied seq. If the leader has compacted its journal past
// that resume point (the wal.ErrGap condition, surfaced by the stream
// endpoint as 410), the local state is discarded and re-seeded from a
// fresh snapshot — a replica's history is always a prefix of the
// leader's, so nothing of value is lost.
//
// The returned one-shard DB serves the full read path while every write
// fails with a *NotLeaderError naming leaderURL. Replicated records flow
// through the apply→append→publish pipeline local writes use, into the
// follower's own WAL, so a crashed follower recovers a commit-prefix
// state locally and resumes without re-downloading anything.
//
// opts.Bootstrap must be nil (follower state comes from the leader) and
// opts.Shards must be 0 or 1 (replication streams one journal; shard a
// cluster by running one follower per shard process instead).
func OpenFollower(dir, leaderURL string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if opts.Shards > 1 {
		return nil, errors.New("structix: OpenFollower replicates a single store; run one follower per shard instead")
	}
	if opts.Bootstrap != nil {
		return nil, errors.New("structix: follower state comes from the leader; Bootstrap must be nil")
	}
	leaderURL = strings.TrimRight(leaderURL, "/")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("structix: %w", err)
	}

	// The position handshake needs the leader up; the stream itself
	// reconnects forever, but opening against an unreachable leader is
	// reported now rather than as a silently empty replica.
	hc := &http.Client{}
	stateCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	st, err := repl.FetchState(stateCtx, hc, leaderURL)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("structix: follower bootstrap: %w", err)
	}

	seqs, _, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		if err := fetchLeaderSnapshot(hc, leaderURL, dir); err != nil {
			return nil, err
		}
	}
	sh, err := openShard(dir, opts)
	if err != nil {
		return nil, err
	}
	if sh.appliedSeq.Load()+1 < st.OldestSeq {
		// The leader compacted past our resume point while we were down:
		// streaming cannot bridge the gap (ErrGap), so re-seed from a
		// fresh snapshot. Discarding local state is safe — it is a strict
		// prefix of the leader's history.
		if err := sh.close(); err != nil {
			return nil, err
		}
		if err := wipeStore(dir); err != nil {
			return nil, err
		}
		if err := fetchLeaderSnapshot(hc, leaderURL, dir); err != nil {
			return nil, err
		}
		if sh, err = openShard(dir, opts); err != nil {
			return nil, err
		}
	}
	sh.leader = leaderURL
	sh.runner = repl.Start(repl.Config{Leader: leaderURL}, sh)
	return newDB(dir, []*Shard{sh}), nil
}

// fetchLeaderSnapshot downloads the leader's current snapshot into dir
// under the name its covered seq dictates, atomically (writeFileAtomic).
func fetchLeaderSnapshot(hc *http.Client, leaderURL, dir string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	seq, body, err := repl.FetchSnapshot(ctx, hc, leaderURL)
	if err != nil {
		return fmt.Errorf("structix: follower bootstrap: %w", err)
	}
	defer body.Close()
	return writeFileAtomic(dir, snapName(seq), func(w io.Writer) error {
		if _, err := io.Copy(w, body); err != nil {
			return fmt.Errorf("structix: follower bootstrap: %w", err)
		}
		return nil
	})
}

// wipeStore removes a follower's local state (snapshots, their stale temp
// files, journal) for a gap-driven re-bootstrap.
func wipeStore(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("structix: %w", err)
	}
	for _, e := range entries {
		if _, ok := parseSnapName(e.Name()); ok || isSnapTmp(e.Name()) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("structix: %w", err)
			}
		}
	}
	if err := os.RemoveAll(filepath.Join(dir, walSubdir)); err != nil {
		return fmt.Errorf("structix: %w", err)
	}
	return wal.SyncDir(dir)
}

// ---- replication hooks on Shard ----

// Seq returns the journal sequence number covered by the published
// snapshot — the replication epoch: 0 on an in-memory store, the last
// locally committed seq on a leader, the last applied seq on a
// follower. Query replies carry it; WaitForSeq turns it into
// read-your-writes across replicas.
func (sh *Shard) Seq() uint64 { return sh.visibleSeq.Load() }

// WaitForSeq blocks until the published snapshot covers seq (then
// returns nil) or ctx expires. It is the follower half of
// read-your-writes: a client that wrote through the leader at seq S
// reads from a replica with min seq S and sees its own write.
func (sh *Shard) WaitForSeq(ctx context.Context, seq uint64) error {
	if sh.visibleSeq.Load() >= seq {
		return nil
	}
	for {
		sh.seqMu.Lock()
		if sh.seqWatch == nil {
			sh.seqWatch = make(chan struct{})
		}
		ch := sh.seqWatch
		sh.seqMu.Unlock()
		if sh.visibleSeq.Load() >= seq {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
		if sh.visibleSeq.Load() >= seq {
			return nil
		}
	}
}

// ApplyRecord applies one replicated journal record: apply it to the live
// index (the function the leader's write and recovery use), append it to
// the local journal (preserving the leader's sequence number), publish the
// snapshot. It is the follower half of the commit protocol, called in
// order by the replication runner; records at or below the applied seq
// are ignored (reconnect overlap).
func (sh *Shard) ApplyRecord(rec *wal.Record) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return ErrClosed
	}
	if sh.failed != nil {
		return sh.failed
	}
	if sh.log == nil {
		return errors.New("structix: an in-memory store cannot apply replicated records")
	}
	applied := sh.appliedSeq.Load()
	if rec.Seq <= applied {
		return nil
	}
	if rec.Seq != applied+1 {
		return fmt.Errorf("structix: replicated record %d does not follow applied seq %d", rec.Seq, applied)
	}
	if _, _, err := apply(sh.idx, rec); err != nil {
		return fmt.Errorf("structix: replicated record %d: %w", rec.Seq, err)
	}
	return sh.commit(rec)
}

// Journal exposes the write-ahead log (nil on an in-memory store) — the
// leader side of the replication Source.
func (sh *Shard) Journal() *wal.Log { return sh.log }

// PinSnapshot pairs the current epoch snapshot with the journal seq it
// covers and returns a writer for the compressed snapshot format — the
// bootstrap half of the replication Source. The pin is an atomic load
// under the writer lock; the write runs on immutable state and may take
// as long as the download takes.
func (sh *Shard) PinSnapshot() (uint64, func(io.Writer) error) {
	sh.mu.Lock()
	snap := sh.cur.Load()
	seq := sh.visibleSeq.Load()
	sh.mu.Unlock()
	return seq, func(w io.Writer) error {
		return persist.SaveSnapshotCompressed(w, snap)
	}
}

// Follower returns the replication runner on a follower shard, nil
// otherwise — the serving layer reads lag stats and installs its
// publication hook through it.
func (sh *Shard) Follower() *repl.Runner { return sh.runner }

// LeaderURL returns the leader base URL on a follower, "" otherwise.
func (sh *Shard) LeaderURL() string { return sh.leader }
