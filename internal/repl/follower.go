package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"structix/internal/wal"
)

// Applier is the follower-side store: records stream in, in order, and
// go through the same apply→append→publish pipeline local writes use —
// into the follower's own journal, preserving sequence numbers.
type Applier interface {
	// ApplyRecord applies one journal record and journals it locally.
	// Records at or below the applied seq must be ignored (reconnect
	// overlap); a record further ahead than seq+1 is an error.
	ApplyRecord(rec *wal.Record) error
	// Seq is the journal seq of the newest applied, published record —
	// the stream resume point is Seq()+1.
	Seq() uint64
	// EndWindow is the commit-window durability barrier; the runner
	// calls it at stream burst boundaries so follower fsync batching
	// mirrors the leader's group commit.
	EndWindow() error
}

// Config tunes a follower Runner.
type Config struct {
	// Leader is the leader's base URL (e.g. "http://10.0.0.1:8080").
	Leader string
	// Client issues the stream and bootstrap requests. Default is a
	// fresh http.Client with no timeout (the stream is long-lived).
	Client *http.Client
	// MinBackoff..MaxBackoff bound the jittered exponential reconnect
	// backoff. Defaults 100ms and 5s.
	MinBackoff, MaxBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.MinBackoff <= 0 {
		c.MinBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	return c
}

// FollowerStats is the replication-lag report for /v1/stats and the
// structix_repl_* metrics.
type FollowerStats struct {
	Leader string `json:"leader"`
	// State is one of "connecting", "streaming", "backoff",
	// "resync_required", "stopped".
	State string `json:"state"`
	// AppliedSeq is the newest locally applied journal seq; LeaderSeq is
	// the newest position the leader has announced; LagSeq is their
	// difference.
	AppliedSeq uint64 `json:"applied_seq"`
	LeaderSeq  uint64 `json:"leader_seq"`
	LagSeq     uint64 `json:"lag_seq"`
	// LagSeconds is 0 while caught up, else seconds since the follower
	// last made progress (applied a record or confirmed it was current).
	LagSeconds float64 `json:"lag_seconds"`
	// Reconnects counts stream (re)connect attempts after the first.
	Reconnects    int64 `json:"reconnects"`
	FramesApplied int64 `json:"frames_applied"`
	// ResyncRequired is the terminal "fell behind the compacted tail or
	// diverged" state: restart the follower to re-bootstrap.
	ResyncRequired bool   `json:"resync_required,omitempty"`
	LastError      string `json:"last_error,omitempty"`
}

// Runner tails a leader's stream and drives an Applier. Start launches
// it; Stop shuts it down and waits.
type Runner struct {
	cfg Config
	ap  Applier

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	onApply atomic.Pointer[func(seq uint64)]

	state         atomic.Pointer[string]
	lastErr       atomic.Pointer[string]
	leaderSeq     atomic.Uint64
	lastProgress  atomic.Int64 // unix nanos of last forward progress
	reconnects    atomic.Int64
	framesApplied atomic.Int64
	resync        atomic.Bool
}

// Start launches the tail loop against cfg.Leader.
func Start(cfg Config, ap Applier) *Runner {
	r := &Runner{
		cfg:  cfg.withDefaults(),
		ap:   ap,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	r.setState("connecting")
	r.lastProgress.Store(time.Now().UnixNano())
	go r.run()
	return r
}

// SetOnApply installs a hook called after every applied record (from
// the runner's apply goroutine) — the serving layer uses it to advance
// its query cache and epoch counters.
func (r *Runner) SetOnApply(fn func(seq uint64)) { r.onApply.Store(&fn) }

// Stop terminates the tail loop and waits for it.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// Leader returns the leader base URL.
func (r *Runner) Leader() string { return r.cfg.Leader }

// Stats returns the current lag report; safe alongside the tail loop.
func (r *Runner) Stats() FollowerStats {
	applied := r.ap.Seq()
	leader := r.leaderSeq.Load()
	st := FollowerStats{
		Leader:         r.cfg.Leader,
		State:          *r.state.Load(),
		AppliedSeq:     applied,
		LeaderSeq:      leader,
		Reconnects:     r.reconnects.Load(),
		FramesApplied:  r.framesApplied.Load(),
		ResyncRequired: r.resync.Load(),
	}
	if leader > applied {
		st.LagSeq = leader - applied
		st.LagSeconds = time.Since(time.Unix(0, r.lastProgress.Load())).Seconds()
	}
	if e := r.lastErr.Load(); e != nil {
		st.LastError = *e
	}
	return st
}

func (r *Runner) setState(s string) { r.state.Store(&s) }

func (r *Runner) setErr(err error) {
	s := err.Error()
	r.lastErr.Store(&s)
}

func (r *Runner) run() {
	defer close(r.done)
	backoff := r.cfg.MinBackoff
	first := true
	for {
		select {
		case <-r.stop:
			r.setState("stopped")
			return
		default:
		}
		if !first {
			r.reconnects.Add(1)
		}
		first = false
		r.setState("connecting")
		healthy, err := r.streamOnce()
		select {
		case <-r.stop:
			r.setState("stopped")
			return
		default:
		}
		if err != nil {
			if errors.Is(err, ErrSnapshotRequired) || errors.Is(err, ErrDiverged) {
				// Terminal: streaming can never catch this follower up.
				// Restarting the process re-runs the OpenFollower bootstrap,
				// which re-seeds from a leader snapshot.
				r.setErr(err)
				r.resync.Store(true)
				r.setState("resync_required")
				return
			}
			r.setErr(err)
		}
		if healthy {
			backoff = r.cfg.MinBackoff
		} else if backoff = backoff * 2; backoff > r.cfg.MaxBackoff {
			backoff = r.cfg.MaxBackoff
		}
		r.setState("backoff")
		// Full jitter around the exponential midpoint: sleep in
		// [backoff/2, backoff), so a fleet of followers does not
		// reconnect in lockstep after a leader restart.
		jittered := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-r.stop:
			r.setState("stopped")
			return
		case <-time.After(jittered):
		}
	}
}

// streamOnce runs one stream connection until it breaks. healthy
// reports whether the connection made progress (reached streaming and
// received at least one frame), which resets the backoff.
func (r *Runner) streamOnce() (healthy bool, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-r.stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	from := r.ap.Seq() + 1
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		r.cfg.Leader+PathStream+"?from="+strconv.FormatUint(from, 10), nil)
	if err != nil {
		return false, err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, streamError(resp)
	}
	r.setState("streaming")

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	fr := wal.NewFrameReader(br, from)
	pendingWindow := false
	for {
		// Burst drained: close the commit window (group fsync under the
		// window policy) before parking on the next read, so follower
		// durability batching mirrors the leader's group commit.
		if pendingWindow && br.Buffered() == 0 {
			if err := r.ap.EndWindow(); err != nil {
				return healthy, err
			}
			pendingWindow = false
		}
		seq, kind, payload, rerr := fr.Next()
		if rerr != nil {
			if ctx.Err() != nil {
				return healthy, nil // stopped or canceled, not a stream fault
			}
			// EOF, short read, CRC mismatch or a seq out of line: a torn
			// stream. Reconnect and resume from our own seq.
			return healthy, rerr
		}
		if seq == 0 { // control frame
			if kind == ctrlHeartbeat {
				// payload = uvarint(0) [1 byte], kind [1 byte], body.
				ship, _, herr := decodeHeartbeat(payload[2:])
				if herr != nil {
					return healthy, herr
				}
				r.noteLeaderSeq(ship)
				if r.ap.Seq() >= ship {
					r.lastProgress.Store(time.Now().UnixNano())
				}
				healthy = true
			}
			continue // unknown control kinds: skip (forward compatibility)
		}
		rec, derr := wal.DecodePayload(payload)
		if derr != nil {
			return healthy, derr
		}
		if err := r.ap.ApplyRecord(rec); err != nil {
			return healthy, fmt.Errorf("repl: apply record %d: %w", rec.Seq, err)
		}
		pendingWindow = true
		healthy = true
		r.framesApplied.Add(1)
		r.noteLeaderSeq(rec.Seq)
		r.lastProgress.Store(time.Now().UnixNano())
		if fn := r.onApply.Load(); fn != nil {
			(*fn)(rec.Seq)
		}
	}
}

// noteLeaderSeq ratchets the observed leader position.
func (r *Runner) noteLeaderSeq(seq uint64) {
	for {
		cur := r.leaderSeq.Load()
		if seq <= cur || r.leaderSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}
