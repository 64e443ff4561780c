package server

// White-box tests for the admission and shutdown plumbing: these construct
// committers directly (no run loop) so queue-full and shutdown races are
// deterministic rather than timing-dependent.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"structix"
	"structix/internal/gtest"
	"structix/internal/shard"
	"structix/internal/wal"
)

// stalledCommitter builds a committer whose loop never runs, with a queue
// of the given capacity: submissions land in the queue and stay there.
func stalledCommitter(queueCap int) *committer {
	return &committer{
		queue:   make(chan *updateReq, queueCap),
		closing: make(chan struct{}),
		quit:    make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
}

func TestCommitterAdmission(t *testing.T) {
	c := stalledCommitter(1)
	if err := c.submit(&updateReq{done: make(chan updateOutcome, 1)}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// The queue is full and the loop is not draining: shed, don't block.
	if err := c.submit(&updateReq{done: make(chan updateOutcome, 1)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit on full queue: got %v, want ErrOverloaded", err)
	}
	c.beginClose()
	if err := c.submit(&updateReq{done: make(chan updateOutcome, 1)}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after beginClose: got %v, want ErrShuttingDown", err)
	}
	// beginClose is idempotent.
	c.beginClose()
}

func TestCommitterWaitPrefersBufferedOutcome(t *testing.T) {
	// A request whose commit raced shutdown: the outcome was delivered and
	// the loop exited. wait must report the real outcome, not a rejection.
	c := stalledCommitter(1)
	close(c.doneCh)
	req := &updateReq{done: make(chan updateOutcome, 1)}
	req.done <- updateOutcome{epoch: 7, batchSize: 3}
	if out := c.wait(req); out.Err != nil || out.epoch != 7 {
		t.Fatalf("wait with buffered outcome: got %+v, want epoch 7", out)
	}
	// Same race without an outcome: the request never committed.
	req2 := &updateReq{done: make(chan updateOutcome, 1)}
	if out := c.wait(req2); !errors.Is(out.Err, ErrShuttingDown) {
		t.Fatalf("wait after loop exit: got %+v, want ErrShuttingDown", out)
	}
}

func TestCommitterCloseDrainsQueue(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	store := structix.NewDB(structix.BuildOneIndex(g))
	c := newCommitter(store.Shard(0), 0, 8, 256, newMetrics(1), nil)
	// Queue a valid edge insert, then close: the drain pass must still
	// resolve the waiter with a committed outcome.
	req := &updateReq{
		Part: shard.Part{Rec: &wal.Record{Kind: wal.RecEdges, Edges: []structix.EdgeOp{structix.InsertOp(2, 4, structix.Tree)}}},
		done: make(chan updateOutcome, 1),
	}
	if err := c.submit(req); err != nil {
		t.Fatalf("submit: %v", err)
	}
	c.close()
	out := c.wait(req)
	if out.Err != nil {
		t.Fatalf("queued update lost across close: %v", out.Err)
	}
	found := false
	store.Shard(0).Snapshot().Data().EachSucc(2, func(w structix.NodeID, _ structix.EdgeKind) {
		if w == 4 {
			found = true
		}
	})
	if !found {
		t.Fatal("drained update did not reach the published snapshot")
	}
}

func TestUpdateOverloadOverHTTP(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	s := New(structix.NewDB(structix.BuildOneIndex(g)), Config{RetryAfter: 3 * time.Second})
	s.coms[0].close()
	// Swap in a stalled committer with its only slot occupied so the next
	// submission deterministically hits admission control.
	full := stalledCommitter(1)
	full.queue <- &updateReq{}
	s.coms[0] = full

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/update",
		strings.NewReader(`{"ops":[{"op":"insert","u":2,"v":4,"kind":"tree"}]}`))
	s.Handler().ServeHTTP(rec, req)

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", ra)
	}
	var rep ErrorReply
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if rep.Code != CodeOverloaded || rep.RetryAfterSeconds != 3 {
		t.Fatalf("error reply %+v, want code %s retry 3", rep, CodeOverloaded)
	}
}

func TestHealthzWhileDraining(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	s := New(structix.NewDB(structix.BuildOneIndex(g)), Config{})
	defer s.coms[0].close()

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", rec.Code)
	}
	s.draining.Store(true)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", rec.Code)
	}
}

// TestCollectIsClockless pins the window rule on a committer whose loop is
// not running: collect never blocks, takes what is queued in arrival
// order up to MaxBatch ops, and hands a queued script back as interrupted.
func TestCollectIsClockless(t *testing.T) {
	edge := func() *updateReq {
		return &updateReq{Part: shard.Part{Rec: &wal.Record{Kind: wal.RecEdges, Edges: []structix.EdgeOp{structix.InsertOp(2, 4, structix.Tree)}}}}
	}
	collect := func(c *committer, first *updateReq) (batch []*updateReq, interrupted *updateReq) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			batch, interrupted = c.collect(first)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("collect blocked")
		}
		return batch, interrupted
	}
	// An empty queue: the window is the request that opened it.
	c := stalledCommitter(16)
	c.maxOps = 256
	first := edge()
	if batch, intr := collect(c, first); !slices.Equal(batch, []*updateReq{first}) || intr != nil {
		t.Fatalf("empty queue: window of %d (interrupted %v), want [first]", len(batch), intr != nil)
	}

	// k queued edge requests: all of them, in arrival order, up to maxOps.
	c.maxOps = 5
	want := []*updateReq{first}
	for i := 0; i < 7; i++ {
		r := edge()
		c.queue <- r
		if len(want) < c.maxOps {
			want = append(want, r)
		}
	}
	if batch, intr := collect(c, first); !slices.Equal(batch, want) || intr != nil {
		t.Fatalf("pre-queued: window of %d (interrupted %v), want the first %d in order", len(batch), intr != nil, len(want))
	}
	if left := len(c.queue); left != 3 {
		t.Fatalf("collect took past MaxBatch: %d requests left in the queue, want 3", left)
	}

	// A script closes the window: the edges before it commit first.
	c = stalledCommitter(16)
	c.maxOps = 256
	e1, e2, after := edge(), edge(), edge()
	script := &updateReq{Part: shard.Part{Rec: &wal.Record{Kind: wal.RecScript, Script: []structix.ScriptOp{{}}}}}
	for _, r := range []*updateReq{e1, e2, script, after} {
		c.queue <- r
	}
	batch, intr := collect(c, first)
	if !slices.Equal(batch, []*updateReq{first, e1, e2}) || intr != script {
		t.Fatalf("script in queue: window of %d, interrupted == script: %v", len(batch), intr == script)
	}
	if left := len(c.queue); left != 1 {
		t.Fatalf("collect read past the script: %d left in the queue, want 1", left)
	}
}

// TestCloseFlushRespectsMaxBatch: the shutdown flush is ordinary windows,
// so a queue filled past MaxBatch drains in capped windows, not one.
func TestCloseFlushRespectsMaxBatch(t *testing.T) {
	const maxOps, nReqs = 4, 19
	g, _, _, _ := gtest.Fig2()
	store := structix.NewDB(structix.BuildOneIndex(g))
	c := stalledCommitter(nReqs)
	c.store, c.maxOps, c.m = store.Shard(0), maxOps, newMetrics(1)
	// Insert/delete of one absent edge alternate, so any prefix is valid.
	reqs := make([]*updateReq, nReqs)
	for i := range reqs {
		op := structix.InsertOp(2, 4, structix.IDRef)
		if i%2 == 1 {
			op = structix.DeleteOp(2, 4)
		}
		reqs[i] = &updateReq{Part: shard.Part{Rec: &wal.Record{Kind: wal.RecEdges, Edges: []structix.EdgeOp{op}}}, done: make(chan updateOutcome, 1)}
		if err := c.submit(reqs[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	go c.run()
	c.close()
	for i, r := range reqs {
		out := c.wait(r)
		if out.Err != nil {
			t.Fatalf("request %d lost across close: %v", i, out.Err)
		}
		// The cap plus the ops of the request that crossed it (1 here, and
		// a 1-op request cannot cross: the window closes exactly at the cap).
		if out.batchSize > maxOps {
			t.Fatalf("request %d rode a %d-op final window, MaxBatch is %d", i, out.batchSize, maxOps)
		}
	}
	if got, want := c.m.batches.Load(), int64((nReqs+maxOps-1)/maxOps); got != want {
		t.Fatalf("flush used %d windows, want %d", got, want)
	}
}

// TestLoneWriterNeverWaits: with nobody else in the queue a window closes
// at once, so sequential single-op updates cost their commit, not a timer.
func TestLoneWriterNeverWaits(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	s := New(structix.NewDB(structix.BuildOneIndex(g)), Config{})
	defer s.coms[0].close()
	bodies := [2]string{
		`{"ops":[{"op":"insert","u":2,"v":4,"kind":"idref"}]}`,
		`{"ops":[{"op":"delete","u":2,"v":4}]}`,
	}
	start := time.Now()
	for i := 0; i < 100; i++ {
		if code, body := postJSON(t, s.Handler(), "/v1/update", bodies[i%2]); code != http.StatusOK {
			t.Fatalf("update %d: status %d: %s", i, code, body)
		}
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("100 sequential updates took %v: the writer is waiting on something", d)
	}
	if p99 := s.m.queueWait.quantileUs(0.99); p99 == 0 || p99 > 10_000 {
		t.Fatalf("queue-wait p99 %dus after 100 lone updates, want (0, 10ms]", p99)
	}
}
