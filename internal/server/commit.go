package server

import (
	"errors"
	"runtime"
	"time"

	"structix"
	"structix/internal/graph"
	"structix/internal/opscript"
	"structix/internal/shard"
	"structix/internal/wal"
)

// The group-commit pipeline. The server runs one committer per shard
// (exactly one for an unsharded store), each owning its shard's writes
// end to end, so shards commit — and fsync — independently. Every update
// request carries one journal record. Concurrent requests land in a
// bounded admission queue; the shard's single committer goroutine drains
// it, joining consecutive edge records into one record per commit window
// (closed when the queue runs dry or the pooled ops reach MaxBatch — see
// collect), so the split phase, the deferred merge pass, and the snapshot
// publication are all paid once per window instead of once per request; a
// script record is a window of its own. Each waiter gets its own outcome
// back: when a joined batch is rejected, the committer falls back to
// writing every member request alone, in arrival order, so one invalid
// request costs its neighbors one extra validation pass, never their
// commit.
//
// Durability rides the same batching: the store's WriteWindowed applies
// and journals without fsyncing, and the committer calls EndWindow
// once per commit window — after every member has applied, before any
// waiter is acknowledged. Under fsync=window the group commit is thus
// also a group fsync (one disk flush amortized over the window); under
// fsync=always each append already synced and EndWindow is a no-op; and
// in every policy no waiter is told "committed" before the policy's
// durability point. A journal failure surfaces in each affected waiter's
// outcome instead of an ack.

// Errors surfaced by submit (mapped to 429/503 by the HTTP layer).
var (
	// ErrOverloaded is returned when the admission queue is full: the
	// client should back off and retry (429 + Retry-After on the wire).
	ErrOverloaded = errors.New("server: update queue full")
	// ErrShuttingDown is returned once draining has begun: no new updates
	// are admitted, but everything already queued will commit.
	ErrShuttingDown = errors.New("server: shutting down")
)

// updateReq is one admitted update waiting for a commit loop: the part
// of the request's record that routed to this committer's shard, in the
// shard's local ids, with what the HTTP layer needs to translate the
// outcome back (see shard.Part).
type updateReq struct {
	shard.Part
	queued time.Time          // stamped by submit: the start of the queue-wait stage
	done   chan updateOutcome // buffered(1): the committer never blocks on it
}

// updateOutcome is what the committer hands back to a waiter.
type updateOutcome struct {
	shard.Outcome
	epoch     uint64
	seq       uint64 // journal seq covered once the request committed (0 in-memory)
	batchSize int    // ops in the group commit that carried the request
}

type committer struct {
	store  *structix.Shard // the shard this pipeline commits to
	shard  int             // which shard this pipeline commits to
	queue  chan *updateReq
	maxOps int
	m      *metrics
	eng    *engine // advanced after every publication (may be nil in tests)

	closing chan struct{} // closed by beginClose: reject new submissions
	quit    chan struct{} // closed by close: drain and exit
	doneCh  chan struct{} // closed when the loop has exited
}

func newCommitter(store *structix.Shard, shard int, queueDepth, maxOps int, m *metrics, eng *engine) *committer {
	c := &committer{
		store:   store,
		shard:   shard,
		queue:   make(chan *updateReq, queueDepth),
		maxOps:  maxOps,
		m:       m,
		eng:     eng,
		closing: make(chan struct{}),
		quit:    make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	go c.run()
	return c
}

// published records one snapshot publication on this committer's shard:
// the shard's result cache advances to the new snapshot (evicting what
// the commit's dirty set invalidates) before the epoch gauges move. This
// goroutine is the shard's only publisher, so its cache advances are
// totally ordered with its publications.
func (c *committer) published() uint64 {
	if c.eng != nil {
		c.eng.advance(c.shard)
	}
	return c.m.bumpEpoch(c.shard)
}

// submit admits a request or sheds it. It never blocks: a full queue is
// load the server cannot absorb, and the right answer is 429 now rather
// than unbounded latency later.
func (c *committer) submit(req *updateReq) error {
	select {
	case <-c.closing:
		return ErrShuttingDown
	default:
	}
	req.queued = time.Now()
	select {
	case c.queue <- req:
		return nil
	default:
		return ErrOverloaded
	}
}

// wait blocks until the committer resolves req. If the committer exits
// first (shutdown raced the submission), the request is reported as
// cleanly rejected — it has either fully committed (in which case the
// buffered outcome wins below) or never touched the store.
func (c *committer) wait(req *updateReq) updateOutcome {
	select {
	case out := <-req.done:
		return out
	case <-c.doneCh:
		select {
		case out := <-req.done:
			return out
		default:
			return updateOutcome{Outcome: shard.Outcome{Err: ErrShuttingDown}}
		}
	}
}

// beginClose stops admission; already-queued requests still commit.
func (c *committer) beginClose() {
	select {
	case <-c.closing:
	default:
		close(c.closing)
	}
}

// close drains the queue (flushing any final partial window) and stops the
// loop. Callers must have stopped all submitters first (beginClose + HTTP
// shutdown) — close does not synchronize with concurrent submit calls.
func (c *committer) close() {
	c.beginClose()
	select {
	case <-c.quit:
	default:
		close(c.quit)
	}
	<-c.doneCh
}

func (c *committer) run() {
	defer close(c.doneCh)
	for {
		select {
		case req := <-c.queue:
			c.dispatch(req)
			continue
		case <-c.quit:
		}
		// Quit: keep dispatching what was admitted before it; nothing new
		// can arrive because beginClose precedes quit.
		select {
		case req := <-c.queue:
			c.dispatch(req)
		default:
			return
		}
	}
}

// dispatch opens a commit window at req and commits it, then the script
// that closed it, if one did.
func (c *committer) dispatch(req *updateReq) {
	if req.Rec.Kind != wal.RecEdges {
		c.commit([]*updateReq{req})
		return
	}
	batch, interrupted := c.collect(req)
	c.commit(batch)
	if interrupted != nil {
		c.commit([]*updateReq{interrupted})
	}
}

// collect gathers the commit window that first opens: every edge request
// already queued, then whatever one runtime.Gosched lets the runnable
// update handlers enqueue (writers the last window's acks just woke), and
// so on while a yield still produces a request. It stops at maxOps pooled
// ops, at a script (returned separately; it commits after the window,
// preserving arrival order), or at the first yield that adds nothing. No
// clock, no sleep: a lone request commits at once, a loaded server batches
// what arrived while the previous window applied and fsynced. Shutdown's
// final flush is this same loop, so maxOps bounds it too.
func (c *committer) collect(first *updateReq) (batch []*updateReq, interrupted *updateReq) {
	batch = []*updateReq{first}
	n := len(first.Rec.Edges)
	for yielded := false; n < c.maxOps; {
		select {
		case req := <-c.queue:
			if req.Rec.Kind != wal.RecEdges {
				return batch, req
			}
			batch = append(batch, req)
			n += len(req.Rec.Edges)
			yielded = false
		default:
			if yielded {
				return batch, nil
			}
			runtime.Gosched()
			yielded = true
		}
	}
	return batch, nil
}

// commit writes one window: its members' edge records joined into one, or
// a lone script. The fast path is one WriteWindowed; when a joined batch
// is rejected every member retries alone, so each waiter gets its own
// typed outcome with op indexes in its own coordinate space. The window's
// one EndWindow covers every member that committed before anyone is
// acknowledged.
func (c *committer) commit(batch []*updateReq) {
	start := time.Now() // the window starts applying: every member's queue wait ends
	n := 0
	for _, r := range batch {
		c.m.queueWait.observe(start.Sub(r.queued))
		n += len(r.Rec.Edges)
	}
	rec := batch[0].Rec
	if len(batch) > 1 {
		ops := make([]graph.EdgeOp, 0, n)
		for _, r := range batch {
			ops = append(ops, r.Rec.Edges...)
		}
		rec = &wal.Record{Kind: wal.RecEdges, Edges: ops}
	}
	outs := make([]updateOutcome, len(batch))
	committed, committedOps := int64(0), int64(0)
	if out := c.write(rec); out.Err == nil || len(batch) == 1 {
		if out.Err == nil {
			committed, committedOps = 1, int64(out.batchSize)
		}
		for i, r := range batch {
			outs[i] = out
			if len(batch) > 1 {
				outs[i].Res = opscript.BatchResult(r.Rec.Edges)
			}
		}
	} else {
		// The window held at least one invalid request. An edge record is
		// validated before anything mutates, so nothing has been applied
		// (or journaled); re-run each request as its own atomic batch, in
		// arrival order. A rejection's epoch is captured at its own
		// outcome: later members may still publish, and their epochs must
		// not leak into an earlier rejection.
		for i, r := range batch {
			if outs[i] = c.write(r.Rec); outs[i].Err == nil {
				committed++
				committedOps += int64(outs[i].batchSize)
			}
		}
	}
	// Commit counters move only after the barrier: a window whose fsync
	// failed was not acknowledged as committed, and must not be counted as
	// one (the mean batch size would drift from what clients were told).
	serr := c.store.EndWindow()
	if serr == nil && rec.Kind == wal.RecEdges {
		c.m.batches.Add(committed)
		c.m.batchedOps.Add(committedOps)
	} else if serr == nil {
		c.m.scripts.Add(1)
	}
	for i, r := range batch {
		if serr != nil && outs[i].Err == nil {
			outs[i].Err = serr
		}
		r.done <- outs[i]
	}
}

// write writes one record and reads its outcome: the epoch its
// publication advanced to (the current one when it applied nothing — a
// follower store, where the stream runner owns publication, rejects every
// write), the journal seq it left, and the window's op count.
func (c *committer) write(rec *wal.Record) updateOutcome {
	res, err := c.store.WriteWindowed(rec)
	out := updateOutcome{Outcome: shard.Outcome{Res: res, Err: err}, batchSize: rec.Ops()}
	if res.Applied > 0 {
		out.epoch, out.seq = c.published(), c.store.Seq()
	} else {
		out.epoch = c.m.epoch.Load()
	}
	return out
}
