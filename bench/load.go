package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"structix/internal/client"
	"structix/internal/graph"
	"structix/internal/opscript"
)

// The load generator: closed-loop clients, one goroutine and one
// keep-alive connection each, all inside this process. A client sends its
// next request only when the previous reply has arrived and been checked.

const (
	batchOps     = 8   // edge ops per atomic update request
	poolBatches  = 64  // batches per writer pool: 512 edges each
	scriptNodes  = 4   // addnode ops per node script
	readLimit    = 128 // node-list cap on every read; Count stays exact
	reqTimeout   = 30 * time.Second
	scriptsInFly = 2 // node groups a scripter keeps before deleting the oldest
)

type opKind int

const (
	opRead opKind = iota
	opWrite
	opScript
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "script"}

// recorder is one client's private tally; merged after the phase.
type recorder struct {
	lat       [numKinds]samples
	edgeOps   int // acked edge ops
	attempted int
	failed    int
	ends      []time.Time // completion time of every timed request
	firstErr  error
	spans     *tracer // non-nil on a traced run
	on        bool    // false during warm-up and drains: count, do not time
}

// observe books one finished request. A failed request has no latency:
// it counts as missing.
func (r *recorder) observe(kind opKind, start, end time.Time, edgeOps int, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s request: %w", kindNames[kind], err)
		}
		return
	}
	if !r.on {
		return
	}
	r.lat[kind].add(end.Sub(start))
	r.edgeOps += edgeOps
	r.ends = append(r.ends, end)
	if r.spans != nil {
		r.spans.add("client."+kindNames[kind], start, end, 0)
	}
}

// An actor is one client's behaviour: step sends exactly one request.
// drain returns the server to the actor's fixed residual state.
type actor interface {
	step(ctx context.Context, rec *recorder)
	drain(ctx context.Context, rec *recorder)
}

// reader cycles an expression list through a cursor. Readers sharing one
// cursor walk the list as one interleaved stream, so the distance between
// two requests for the same expression is always the whole list — what
// makes read_cold an LRU worst case however the clients drift.
type reader struct {
	cli    *client.Client
	exprs  []string
	cursor *atomic.Int64
}

func (a *reader) step(ctx context.Context, rec *recorder) {
	i := int(a.cursor.Add(1)-1) % len(a.exprs)
	readOnce(ctx, a.cli, a.exprs[i], rec)
}

func (a *reader) drain(context.Context, *recorder) {}

func readOnce(ctx context.Context, cli *client.Client, expr string, rec *recorder) {
	rctx, cancel := context.WithTimeout(ctx, reqTimeout)
	start := time.Now()
	res, err := cli.QueryLimit(rctx, expr, readLimit)
	end := time.Now()
	cancel()
	if err == nil {
		want := res.Count
		if want > readLimit {
			want = readLimit
		}
		if len(res.Nodes) != want || res.Truncated != (res.Count > readLimit) {
			err = fmt.Errorf("%s: count %d but %d nodes (truncated=%v)", expr, res.Count, len(res.Nodes), res.Truncated)
		}
	}
	rec.observe(opRead, start, end, 0, err)
}

// writer toggles its own pool batch by batch: a pass of inserts, then a
// pass of deletes, each batch one atomic 8-op request. The pool is
// disjoint from every other client's, so every request is valid whatever
// the group commits interleave with.
type writer struct {
	cli      *client.Client
	ins, del [][]opscript.Op // per batch
	inserted []bool
	next     int
}

func newWriter(cli *client.Client, pool []edge) *writer {
	w := &writer{cli: cli, inserted: make([]bool, len(pool)/batchOps)}
	for b := 0; b+batchOps <= len(pool); b += batchOps {
		ins := make([]opscript.Op, batchOps)
		del := make([]opscript.Op, batchOps)
		for i, e := range pool[b : b+batchOps] {
			ins[i] = opscript.Op{Kind: opscript.Insert, U: e[0], V: e[1], Edge: graph.IDRef}
			del[i] = opscript.Op{Kind: opscript.Delete, U: e[0], V: e[1]}
		}
		w.ins = append(w.ins, ins)
		w.del = append(w.del, del)
	}
	return w
}

// update sends one update request under the request timeout and returns
// the reply with the instants around it.
func update(ctx context.Context, cli *client.Client, ops []opscript.Op) (res client.UpdateResult, start, end time.Time, err error) {
	rctx, cancel := context.WithTimeout(ctx, reqTimeout)
	defer cancel()
	start = time.Now()
	res, err = cli.Update(rctx, ops)
	return res, start, time.Now(), err
}

func (w *writer) toggle(ctx context.Context, b int, rec *recorder) {
	ops := w.ins[b]
	if w.inserted[b] {
		ops = w.del[b]
	}
	res, start, end, err := update(ctx, w.cli, ops)
	if err == nil {
		ins, del := batchOps, 0
		if w.inserted[b] {
			ins, del = 0, batchOps
		}
		if res.Applied != batchOps || res.Inserted != ins || res.Deleted != del {
			err = fmt.Errorf("edge batch acked applied=%d inserted=%d deleted=%d, want %d/%d/%d",
				res.Applied, res.Inserted, res.Deleted, batchOps, ins, del)
		}
	}
	if err == nil {
		w.inserted[b] = !w.inserted[b]
	}
	rec.observe(opWrite, start, end, batchOps, err)
}

func (w *writer) step(ctx context.Context, rec *recorder) {
	w.toggle(ctx, w.next, rec)
	w.next = (w.next + 1) % len(w.inserted)
}

// residual reports whether batch b belongs to the fixed residual state:
// the even batches stay inserted, the odd ones deleted.
func residual(b int) bool { return b%2 == 0 }

func (w *writer) drain(ctx context.Context, rec *recorder) {
	for b := range w.inserted {
		if w.inserted[b] != residual(b) {
			w.toggle(ctx, b, rec)
		}
	}
}

// residualEdges lists the edges a drained writer over pool leaves behind.
func residualEdges(pool []edge) []edge {
	var out []edge
	for b := 0; b+batchOps <= len(pool); b += batchOps {
		if residual(b / batchOps) {
			out = append(out, pool[b:b+batchOps]...)
		}
	}
	return out
}

// scripter sends node scripts: addnode×4 under one of its open auctions,
// and once scriptsInFly groups exist, delnode of the oldest group's
// returned ids. Scripts take the server's full re-freeze path.
type scripter struct {
	cli     *client.Client
	parents []graph.NodeID
	next    int
	groups  [][]graph.NodeID
}

// addNodeOps is one node script: scriptNodes bidders under parent.
func addNodeOps(parent graph.NodeID) []opscript.Op {
	ops := make([]opscript.Op, scriptNodes)
	for i := range ops {
		ops[i] = opscript.Op{Kind: opscript.AddNode, Label: "bidder", V: parent}
	}
	return ops
}

// delNodeOps is the script that removes what an addNodeOps script added.
func delNodeOps(ids []graph.NodeID) []opscript.Op {
	ops := make([]opscript.Op, len(ids))
	for i, v := range ids {
		ops[i] = opscript.Op{Kind: opscript.DelNode, U: v}
	}
	return ops
}

func (s *scripter) step(ctx context.Context, rec *recorder) {
	if len(s.groups) >= scriptsInFly {
		s.delOldest(ctx, rec)
		return
	}
	parent := s.parents[s.next%len(s.parents)]
	s.next++
	res, start, end, err := update(ctx, s.cli, addNodeOps(parent))
	if err == nil && (res.Applied != scriptNodes || len(res.NewNodes) != scriptNodes) {
		err = fmt.Errorf("addnode script acked applied=%d new_nodes=%d, want %d", res.Applied, len(res.NewNodes), scriptNodes)
	}
	if err == nil {
		s.groups = append(s.groups, res.NewNodes)
	}
	rec.observe(opScript, start, end, 0, err)
}

func (s *scripter) delOldest(ctx context.Context, rec *recorder) {
	ids := s.groups[0]
	res, start, end, err := update(ctx, s.cli, delNodeOps(ids))
	if err == nil && (res.Applied != len(ids) || res.Removed != len(ids)) {
		err = fmt.Errorf("delnode script acked applied=%d removed=%d, want %d", res.Applied, res.Removed, len(ids))
	}
	// Drop the group even on failure: retrying a half-applied script would
	// fail again on its first op and never terminate the drain.
	s.groups = s.groups[1:]
	rec.observe(opScript, start, end, 0, err)
}

func (s *scripter) drain(ctx context.Context, rec *recorder) {
	for len(s.groups) > 0 {
		s.delOldest(ctx, rec)
	}
}

// mixer is one client of the mixed workload: 90% reads over a pool that
// fits the result cache, 10% writes, of which three in four are edge
// batches and one is a node script. The mix is a fixed 40-step cycle, not
// a coin per request: a script costs as much as 300 cached reads, and a
// window's worth of coin flips puts between 15 and 30 of them into it —
// a fifth of its time decided by the seed.
type mixer struct {
	r *reader
	w *writer
	s *scripter
	n int // requests sent
}

const mixCycle = 40 // 36 reads, 3 edge batches (steps 9, 22, 35), 1 node script (step 39)

func (m *mixer) step(ctx context.Context, rec *recorder) {
	switch m.n % mixCycle {
	case 9, 22, 35:
		m.w.step(ctx, rec)
	case 39:
		m.s.step(ctx, rec)
	default:
		m.r.step(ctx, rec)
	}
	m.n++
}

func (m *mixer) drain(ctx context.Context, rec *recorder) {
	m.w.drain(ctx, rec)
	m.s.drain(ctx, rec)
}

// rateSlices is how many parts a window is cut into for its request rate.
const rateSlices = 16

// phase is the merged outcome of one measured window.
type phase struct {
	lat       [numKinds]samples // sorted
	edgeOps   int
	attempted int
	failed    int
	timed     int     // requests inside the window
	rate      float64 // requests per second: the median over the window's parts
	idleFrac  float64 // share of the window the clients spent outside requests
	err       error
}

// phaseOpts shapes one call of runPhase.
type phaseOpts struct {
	warm         time.Duration // untimed lead-in
	minWarmSteps int           // ... which lasts at least this many steps per client
	window       time.Duration // timed window
	drain        bool          // finish with each actor's drain
	spans        *tracer       // record a span per timed request
}

// runPhase drives every actor in its own goroutine: warm-up, then the
// measured window, then — if asked — each actor's drain. Requests sent
// during warm-up and drains are checked and counted but not timed. A
// window is measured until its last reply, so a request in flight at the
// deadline is neither dropped nor cut short.
func runPhase(ctx context.Context, actors []actor, o phaseOpts) phase {
	recs := make([]recorder, len(actors))
	var wg sync.WaitGroup
	begin := time.Now()
	var measureFrom atomic.Int64 // unix nanos; set once every actor has warmed up
	var warmed sync.WaitGroup
	warmed.Add(len(actors))
	go func() {
		warmed.Wait()
		measureFrom.Store(time.Now().UnixNano())
	}()
	for i, a := range actors {
		wg.Add(1)
		go func(a actor, rec *recorder) {
			defer wg.Done()
			rec.spans = o.spans
			for steps := 0; (time.Since(begin) < o.warm || steps < o.minWarmSteps) && ctx.Err() == nil; steps++ {
				a.step(ctx, rec)
			}
			warmed.Done()
			// Keep the server under full load until every client is warm.
			for measureFrom.Load() == 0 && ctx.Err() == nil {
				a.step(ctx, rec)
			}
			from := time.Unix(0, measureFrom.Load())
			rec.on = true
			for time.Since(from) < o.window && ctx.Err() == nil && rec.failed == 0 {
				a.step(ctx, rec)
			}
			rec.on = false
			if o.drain {
				a.drain(ctx, rec)
			}
		}(a, &recs[i])
	}
	wg.Wait()

	var p phase
	from := time.Unix(0, measureFrom.Load())
	var busy time.Duration
	// The rate is a median over 16 parts of the window: one stalled part —
	// a collection, a compaction, a noisy neighbour — moves a mean, not a
	// median. The parts hold equal numbers of completions and each is
	// timed from the completion before it to its own last, so every
	// instant of the window is counted once and the rate resolves as
	// finely as the clock, not as whole requests per slice.
	var ends []time.Duration
	for i := range recs {
		r := &recs[i]
		for k := range p.lat {
			p.lat[k] = append(p.lat[k], r.lat[k]...)
		}
		p.edgeOps += r.edgeOps
		p.attempted += r.attempted
		p.failed += r.failed
		p.timed += len(r.ends)
		for _, end := range r.ends {
			ends = append(ends, end.Sub(from))
		}
		if p.err == nil {
			p.err = r.firstErr
		}
	}
	for k := range p.lat {
		p.lat[k] = p.lat[k].sorted()
		for _, d := range p.lat[k] {
			busy += time.Duration(d)
		}
	}
	if o.window > 0 {
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		rates := []float64{float64(len(ends)) / o.window.Seconds()}
		if per := len(ends) / rateSlices; per > 0 {
			rates = rates[:0]
			var start time.Duration
			for g := 1; g <= rateSlices; g++ {
				end := ends[g*per-1]
				rates = append(rates, float64(per)/(end-start).Seconds())
				start = end
			}
		}
		p.rate = median(rates)
		p.idleFrac = 1 - float64(busy)/(float64(o.window)*float64(len(actors)))
	}
	if p.err == nil {
		p.err = ctx.Err()
	}
	return p
}
