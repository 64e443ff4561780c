package server

import (
	"errors"
	"runtime"
	"time"

	"structix"
	"structix/internal/graph"
	"structix/internal/opscript"
)

// The group-commit pipeline. The server runs one committer per shard
// (exactly one for an unsharded store), each owning its shard's writes
// end to end, so shards commit — and fsync — independently. Concurrent
// update requests land in a bounded admission queue; the shard's single
// committer goroutine drains it, coalescing
// edge-only requests into one ApplyBatch per commit window (closed when
// the queue runs dry or the pooled ops reach MaxBatch — see collect), so
// the split phase, the deferred merge pass, and the snapshot publication
// are all paid once per window instead of once per request. Each waiter
// gets its own outcome back: when a coalesced batch is rejected, the
// committer falls back to applying every member request alone, in arrival
// order, so one invalid request costs its neighbors one extra validation
// pass, never their commit.
//
// Durability rides the same batching: the store's Windowed entry points
// apply and journal without fsyncing, and the committer calls EndWindow
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

// updateReq is one admitted update waiting for a commit loop. Exactly
// one of edges/script is set: edge-only requests coalesce, scripts apply
// alone. On a sharded server the ops are already in the target shard's
// local id space; shard and orig carry what the HTTP layer needs to
// translate the outcome back (orig is SplitEdges' original-index column
// for this shard's sub-batch; nil when the indexes already agree).
type updateReq struct {
	edges  []graph.EdgeOp
	script []opscript.Op
	shard  int
	orig   []int
	queued time.Time          // stamped by submit: the start of the queue-wait stage
	done   chan updateOutcome // buffered(1): the committer never blocks on it
}

// updateOutcome is what the committer hands back to a waiter.
type updateOutcome struct {
	err       error
	res       opscript.Result
	epoch     uint64
	seq       uint64 // journal seq covered once the request committed (0 in-memory)
	batchSize int    // ops in the group commit that carried the request
}

type committer struct {
	store  *structix.DB // the shard's store handle
	shard  int          // which shard this pipeline commits to
	queue  chan *updateReq
	maxOps int
	m      *metrics
	eng    *engine // advanced after every publication (may be nil in tests)

	closing chan struct{} // closed by beginClose: reject new submissions
	quit    chan struct{} // closed by close: drain and exit
	doneCh  chan struct{} // closed when the loop has exited
}

func newCommitter(store *structix.DB, shard int, queueDepth, maxOps int, m *metrics, eng *engine) *committer {
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
			return updateOutcome{err: ErrShuttingDown}
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

// dispatch routes one request: scripts go alone, edge requests open a
// commit window and coalesce.
func (c *committer) dispatch(req *updateReq) {
	if req.script != nil {
		c.applyScript(req)
		return
	}
	batch, interrupted := c.collect(req)
	c.commitEdges(batch)
	if interrupted != nil {
		c.applyScript(interrupted)
	}
}

// collect gathers the commit window that first opens: every edge request
// already queued, then whatever one runtime.Gosched lets the runnable
// update handlers enqueue (writers the last window's acks just woke), and
// so on while a yield still produces a request. It stops at maxOps pooled
// ops, at a script (returned separately; it applies after the window,
// preserving arrival order), or at the first yield that adds nothing. No
// clock, no sleep: a lone request commits at once, a loaded server batches
// what arrived while the previous window applied and fsynced. Shutdown's
// final flush is this same loop, so maxOps bounds it too.
func (c *committer) collect(first *updateReq) (batch []*updateReq, interrupted *updateReq) {
	batch = []*updateReq{first}
	n := len(first.edges)
	for yielded := false; n < c.maxOps; {
		select {
		case req := <-c.queue:
			if req.script != nil {
				return batch, req
			}
			batch = append(batch, req)
			n += len(req.edges)
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

// commitEdges applies one coalesced window. The fast path is a single
// ApplyBatch over the concatenated ops; on rejection every member request
// retries alone so each waiter gets its own typed outcome with op indexes
// in its own coordinate space.
func (c *committer) commitEdges(batch []*updateReq) {
	total := 0
	start := time.Now() // the window starts applying: every member's queue wait ends
	for _, r := range batch {
		total += len(r.edges)
		c.m.queueWait.observe(start.Sub(r.queued))
	}
	ops := make([]graph.EdgeOp, 0, total)
	for _, r := range batch {
		ops = append(ops, r.edges...)
	}
	if err := c.store.ApplyBatchWindowed(ops); err == nil {
		epoch := c.published()
		seq := c.store.Seq()
		// The durability barrier comes before any acknowledgment: once a
		// waiter hears "committed" the ops are applied, journaled, and —
		// under fsync=window — on disk. One fsync covers the whole window.
		if serr := c.store.EndWindow(); serr != nil {
			for _, r := range batch {
				r.done <- updateOutcome{err: serr, epoch: epoch}
			}
			return
		}
		// Commit counters move only after the barrier: a window whose
		// fsync failed was not acknowledged as committed, and must not be
		// counted as one (the mean batch size would drift from what
		// clients were actually told).
		c.m.batches.Add(1)
		c.m.batchedOps.Add(int64(total))
		for _, r := range batch {
			r.done <- updateOutcome{epoch: epoch, seq: seq, batchSize: total}
		}
		return
	}
	// The window contained at least one invalid request. ApplyBatch
	// validated before mutating, so nothing has been applied (and nothing
	// was journaled); re-run each request as its own atomic batch, in
	// arrival order, collecting outcomes so one EndWindow still covers
	// every successful member before anyone is acknowledged.
	outs := make([]updateOutcome, len(batch))
	committed, committedOps := int64(0), int64(0)
	for i, r := range batch {
		err := c.store.ApplyBatchWindowed(r.edges)
		if err != nil {
			// The rejection epoch is captured here, at this member's own
			// outcome — later members of the window may still publish, and
			// their epochs must not leak into an earlier rejection (the
			// waiter would believe its failure was observed at a snapshot
			// that postdates it).
			epoch := c.m.epoch.Load()
			outs[i] = updateOutcome{err: err, epoch: epoch}
			continue
		}
		epoch := c.published()
		outs[i] = updateOutcome{epoch: epoch, seq: c.store.Seq(), batchSize: len(r.edges)}
		committed++
		committedOps += int64(len(r.edges))
	}
	serr := c.store.EndWindow()
	if serr == nil {
		// As on the fast path: count commits only once the barrier held.
		c.m.batches.Add(committed)
		c.m.batchedOps.Add(committedOps)
	}
	for i, r := range batch {
		if serr != nil && outs[i].err == nil {
			outs[i] = updateOutcome{err: serr, epoch: outs[i].epoch}
		}
		r.done <- outs[i]
	}
}

// applyScript runs a node/subtree script alone under the writer lock with
// stop-at-first-error semantics (the opscript contract); the store
// journals exactly the applied prefix and publishes a snapshot reflecting
// it. The script is its own commit window, so the durability barrier runs
// before the waiter hears the outcome.
func (c *committer) applyScript(req *updateReq) {
	c.m.queueWait.observe(time.Since(req.queued))
	res, err := c.store.ApplyScriptWindowed(req.script)
	// Publish only when something actually applied: a script whose every
	// op was rejected (or that was refused outright — a follower store
	// rejects all writes) produced no new snapshot, and advancing the
	// cache/epoch for it would violate the single-advancer contract on a
	// replica, where the stream runner owns publication.
	var epoch uint64
	if res.Applied > 0 {
		epoch = c.published()
	} else {
		epoch = c.m.epoch.Load()
	}
	seq := c.store.Seq()
	serr := c.store.EndWindow()
	if serr == nil {
		c.m.scripts.Add(1)
	} else if err == nil {
		err = serr
	}
	req.done <- updateOutcome{err: err, res: res, epoch: epoch, seq: seq, batchSize: len(req.script)}
}
