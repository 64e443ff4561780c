// Tailing and subscription: the APIs that let the replication layer
// treat the journal as a stream. A leader replays raw frames (exact
// on-disk bytes, so followers inherit the CRC framing for free) up to
// the ship bound — the newest record that is safe to hand to another
// process — and parks on Watch until the journal grows. A follower
// re-appends decoded records into its own journal with Append, which
// keeps their sequence numbers so leader and follower journals are
// frame-identical.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Watch returns a channel that is closed the next time the journal
// grows or its durable horizon advances. Callers park on the channel,
// then re-check ShipSeq and call Watch again: the channel is one-shot.
func (l *Log) Watch() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.watch == nil {
		l.watch = make(chan struct{})
	}
	return l.watch
}

// wake broadcasts to every Watch subscriber. l.mu held.
func (l *Log) wake() {
	if l.watch != nil {
		close(l.watch)
		l.watch = nil
	}
}

// ShipSeq returns the newest sequence number that is safe to ship to a
// follower. Under SyncAlways and SyncWindow that is the durable seq:
// shipping an unsynced record could let a follower outlive a leader
// crash with history the leader itself lost, forking the two journals.
// Under SyncInterval and SyncNone acknowledgments already run ahead of
// fsync, so the appended seq is the honest bound (the same loss window
// clients accepted applies to followers).
func (l *Log) ShipSeq() uint64 {
	switch l.opts.Policy {
	case SyncAlways, SyncWindow:
		return l.durable.Load()
	default:
		return l.appended.Load()
	}
}

// OldestSeq returns the oldest record sequence number the journal still
// retains, or NextSeq if it retains none (fresh or fully compacted).
// A follower asking to stream from below this bound needs a snapshot
// bootstrap instead.
func (l *Log) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.oldestLocked()
}

func (l *Log) oldestLocked() uint64 {
	for _, seg := range l.segs {
		if seg.last >= seg.first {
			return seg.first
		}
	}
	return l.nextSeq
}

// ReplayRaw streams the exact on-disk frame bytes (header + payload,
// re-validated by ReadFrame) of every record with from ≤ seq ≤ to, in
// order. The buffer passed to fn is reused across calls. It fails with
// ErrGap when the journal no longer reaches back to from — also when
// compaction removes a segment mid-replay.
func (l *Log) ReplayRaw(from, to uint64, fn func(seq uint64, frame []byte) error) error {
	if to < from {
		return nil
	}
	l.mu.Lock()
	segs := append([]segInfo(nil), l.segs...)
	next, oldest := l.nextSeq, l.oldestLocked()
	l.mu.Unlock()
	if from < next && oldest > from {
		return fmt.Errorf("%w: oldest retained seq is %d, replay wants %d", ErrGap, oldest, from)
	}
	var buf []byte
	for _, seg := range segs {
		if seg.last < from || seg.first > to {
			continue
		}
		var err error
		_, buf, err = walkSegment(seg.path, seg.first, min(seg.last, to), buf, func(seq uint64, frame []byte) error {
			if seq < from {
				return nil
			}
			return fn(seq, frame)
		})
		if errors.Is(err, os.ErrNotExist) {
			// Compaction removed the segment after we snapshotted the
			// list: the history is gone, same contract as ErrGap.
			return fmt.Errorf("%w: segment %s compacted away mid-replay", ErrGap, filepath.Base(seg.path))
		}
		if err != nil {
			return err
		}
	}
	return nil
}
