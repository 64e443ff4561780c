// Package wal is the write-ahead op-script journal behind the durable
// store: every committed write (a group-commit window of edge ops, an
// applied script prefix, or a subgraph graft) is appended as one
// length-prefixed, CRC-framed record to an append-only segment file
// before it is acknowledged, so that recovery — load the last durable
// snapshot, replay the journal tail — reconstructs exactly the
// acknowledged history after a crash.
//
// # Frame format
//
// A segment file starts with an 8-byte magic ("sxwal001") and then holds
// a sequence of frames:
//
//	[4 bytes] payload length N, little endian
//	[4 bytes] CRC-32C (Castagnoli) of the payload
//	[N bytes] payload
//
// ReadFrame is the only parser of that layout and SealFrame (over a
// buffer begun with StartFrame) the only writer; Open's scan, Replay,
// ReplayRaw and a replication follower's stream loop all read through
// them, so a check one path makes, every path makes.
//
// The payload is (uvarint seq, 1-byte record kind, kind-specific body).
// Sequence numbers are assigned contiguously from 1 and never reused; a
// record is the unit of atomicity. A torn write — the partial frame an
// OS crash can leave at the tail of the active segment — fails the
// length or CRC check and is discarded by recovery together with
// everything after it, so replay never surfaces a partial batch.
//
// # Segments and compaction
//
// The log rolls to a new segment once the active one exceeds
// SegmentBytes; segments are named wal-%016x.seg by the sequence number
// of their first record. After the store writes a snapshot covering
// sequence number S, RemoveBelow(S+1) deletes every sealed segment whose
// records are all ≤ S — log-structured compaction without rewriting
// anything.
//
// # Fsync policies
//
// Durability piggybacks on group commit: the serving layer appends one
// frame per commit window and pays one fsync for the whole window.
//
//	SyncAlways   fsync inside every Append, before it returns
//	SyncWindow   fsync when the committer ends the window (Sync call)
//	SyncInterval background fsync every Interval; bounded loss window
//	SyncNone     never fsync; the OS page cache decides
//
// Under SyncAlways and SyncWindow an acknowledged commit is on disk
// before the acknowledgment; SyncInterval and SyncNone trade that for
// latency, bounding loss to the sync interval (or the OS flush horizon).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"structix/internal/graph"
	"structix/internal/opscript"
)

// SyncPolicy selects when appended frames are fsynced.
type SyncPolicy uint8

// Fsync policies, in decreasing order of durability.
const (
	// SyncWindow fsyncs once per commit window: Append buffers, the
	// window-ending Sync call flushes. The default.
	SyncWindow SyncPolicy = iota
	// SyncAlways fsyncs inside every Append.
	SyncAlways
	// SyncInterval fsyncs on a background ticker every Interval.
	SyncInterval
	// SyncNone never fsyncs; data reaches disk when the OS flushes.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncWindow:
		return "window"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy reads a policy name ("always", "window", "interval",
// "none") as spelled on command lines and in configs.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "window", "":
		return SyncWindow, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return SyncWindow, fmt.Errorf("wal: unknown fsync policy %q (want always, window, interval or none)", s)
}

// Options tunes a Log; the zero value is a 64 MiB-segment SyncWindow log.
type Options struct {
	// Policy selects the fsync schedule. Default SyncWindow.
	Policy SyncPolicy
	// Interval is the background fsync period under SyncInterval.
	// Default 100ms.
	Interval time.Duration
	// SegmentBytes rolls the active segment beyond this size. Default
	// 64 MiB.
	SegmentBytes int64
	// FirstSeq seeds the sequence space when the directory holds no
	// segments (a fresh store, or one whose journal was fully compacted
	// away while closed). It must be one past the sequence number the
	// newest snapshot covers; 0 means 1.
	FirstSeq uint64
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FirstSeq == 0 {
		o.FirstSeq = 1
	}
	return o
}

// Record kinds.
const (
	RecEdges    RecordKind = 1 // a group-committed batch of edge ops
	RecScript   RecordKind = 2 // an applied op-script prefix (node/subtree vocabulary)
	RecSubgraph RecordKind = 3 // a grafted subgraph, full payload (no script syntax)
)

// RecordKind enumerates journal record kinds.
type RecordKind uint8

func (k RecordKind) String() string {
	switch k {
	case RecEdges:
		return "edges"
	case RecScript:
		return "script"
	case RecSubgraph:
		return "subgraph"
	default:
		return fmt.Sprintf("RecordKind(%d)", uint8(k))
	}
}

// Record is one decoded journal record. Exactly one of Edges, Script,
// Sub is set, matching Kind.
type Record struct {
	Seq    uint64
	Kind   RecordKind
	Edges  []graph.EdgeOp
	Script []opscript.Op
	Sub    *SubgraphPayload
}

// Ops is the record's weight in ops: its edge ops, its script ops, or the
// nodes of its subgraph. Replay time is proportional to it.
func (rec *Record) Ops() int {
	n := len(rec.Edges) + len(rec.Script)
	if rec.Sub != nil {
		n += len(rec.Sub.Labels)
	}
	return n
}

// SubgraphPayload is the journal form of a grafted graph.Subgraph:
// label *names* instead of interner ids, so replay against a recovered
// graph re-interns and is independent of interner history. The
// remaining fields mirror graph.Subgraph.
type SubgraphPayload struct {
	Labels    []string
	Values    []string
	Edges     [][2]int32
	EdgeKinds []graph.EdgeKind
	CrossIn   []graph.CrossEdge
	CrossOut  []graph.CrossEdge
}

const (
	segMagic   = "sxwal001"
	segPrefix  = "wal-" // segment file name prefix
	segSuffix  = ".seg" //
	segNameLen = len(segPrefix) + 16 + len(segSuffix)
)

// ErrCorrupt reports structural damage in a sealed (non-final) region of
// the journal — damage that cannot be a torn tail write and therefore
// cannot be repaired by truncation. Opening fails rather than silently
// dropping acknowledged history.
var ErrCorrupt = errors.New("wal: journal corrupt before the final segment tail")

// ErrGap reports that Replay was asked to start below the oldest record
// the journal still retains: acknowledged history is missing (compacted
// away or lost), and replaying only the surviving tail onto a too-old
// base would silently build a wrong state.
var ErrGap = errors.New("wal: journal does not reach back to the requested replay point")

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if len(name) != segNameLen || name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var first uint64
	if _, err := fmt.Sscanf(name[len(segPrefix):len(name)-len(segSuffix)], "%016x", &first); err != nil {
		return 0, false
	}
	return first, true
}

// segInfo describes one validated segment.
type segInfo struct {
	path        string
	first, last uint64 // record seq range; last < first for an empty segment
	size        int64  // valid bytes (magic + intact frames)
}

// Log is an append-only journal over one directory. Appends serialize
// behind an internal mutex; Replay, Stats and RemoveBelow may be called
// concurrently with appends.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    []segInfo // sealed + active segments, ascending
	f       *os.File  // active segment; nil until the first append
	segSize int64     // bytes written to the active segment
	nextSeq uint64
	buf     []byte        // frame scratch, reused across appends
	dirty   bool          // unsynced appended bytes
	err     error         // sticky failure: the log refuses further writes
	watch   chan struct{} // closed when the journal grows; see Watch

	durable   atomic.Uint64 // last seq known fsynced
	appended  atomic.Uint64 // last seq appended
	appends   atomic.Int64
	syncs     atomic.Int64
	truncated int64 // torn bytes dropped by Open

	tick     *time.Ticker // SyncInterval driver
	tickDone chan struct{}
}

// Open validates the journal in dir (creating dir if needed), truncates
// a torn tail off the final segment, and returns a Log positioned to
// append. Records already present are not replayed here — call Replay.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, nextSeq: opts.FirstSeq}

	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	expect := uint64(0) // 0: first segment sets the expectation
	for i, name := range names {
		path := filepath.Join(dir, name)
		final := i == len(names)-1
		info, torn, err := scanSegment(path, expect, final)
		if err != nil {
			return nil, err
		}
		if final && info.size < int64(len(segMagic)) {
			// The segment's own 8-byte magic is torn or missing — the
			// previous process died during a segment roll, between creating
			// the file and durably writing the header. Nothing in the file
			// is recoverable, and keeping it for append would write acked
			// frames into a magic-less segment that the *next* Open would
			// discard wholesale. Delete it; the next append recreates it
			// under the same name (nextSeq is unchanged).
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: removing magic-less segment %s: %w", name, err)
			}
			if err := SyncDir(dir); err != nil {
				return nil, err
			}
			l.truncated = torn
			if expect == 0 {
				expect = info.first
			}
			continue
		}
		if torn > 0 {
			// Torn tail on the final segment: truncate to the last intact
			// frame. (scanSegment only reports torn bytes for the final
			// segment; anywhere else they are ErrCorrupt.)
			if err := os.Truncate(path, info.size); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", name, err)
			}
			l.truncated = torn
		}
		l.segs = append(l.segs, info)
		if info.last >= info.first { // non-empty
			expect = info.last + 1
		} else if expect == 0 {
			expect = info.first
		}
	}
	if expect > 0 {
		l.nextSeq = expect
	}

	// Re-open the final segment for appending.
	if n := len(l.segs); n > 0 {
		last := l.segs[n-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(last.size, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.segSize = last.size
	}

	l.durable.Store(l.nextSeq - 1)
	l.appended.Store(l.nextSeq - 1)

	if opts.Policy == SyncInterval {
		l.tick = time.NewTicker(opts.Interval)
		l.tickDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // fixed-width hex: lexicographic == numeric
	return names, nil
}

// scanSegment validates one segment for Open. expect is the required first
// seq (0 for "whatever the name says"). For the final segment a broken
// tail is reported as torn bytes (to truncate); for sealed segments any
// damage is ErrCorrupt.
func scanSegment(path string, expect uint64, final bool) (info segInfo, torn int64, err error) {
	first, _ := parseSegName(filepath.Base(path))
	if expect != 0 && first != expect {
		return info, 0, fmt.Errorf("%w: segment %s starts at seq %d, want %d", ErrCorrupt, filepath.Base(path), first, expect)
	}
	info, _, err = walkSegment(path, first, math.MaxUint64, nil, nil)
	if final && errors.Is(err, ErrCorrupt) {
		st, serr := os.Stat(path)
		if serr != nil {
			return info, 0, fmt.Errorf("wal: %w", serr)
		}
		return info, st.Size() - info.size, nil
	}
	return info, 0, err
}

// walkSegment is the one reader of a segment file: the magic, then frames
// (through a FrameReader) whose records run contiguously from first. Each
// frame, whole, goes to fn (nil: validate only); the walk ends after
// record `to`, or at a clean end of file when to is unbounded. info
// describes the intact prefix consumed. Any damage — bad magic, a frame
// ReadFrame or the sequence check refuses, a control frame, a file that
// ends before `to` — is ErrCorrupt at info.size; callers that can repair
// a torn tail (scanSegment) reclassify it.
func walkSegment(path string, first, to uint64, buf []byte, fn func(seq uint64, frame []byte) error) (info segInfo, _ []byte, err error) {
	info = segInfo{path: path, first: first, last: first - 1}
	f, err := os.Open(path)
	if err != nil {
		return info, buf, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	corrupt := func(why any) (segInfo, []byte, error) {
		return info, buf, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, filepath.Base(path), info.size, why)
	}
	var magic [len(segMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != segMagic {
		return corrupt("bad segment magic")
	}
	info.size = int64(len(segMagic))
	fr := FrameReader{r: f, buf: buf, next: first}
	for fr.next <= to {
		seq, _, _, err := fr.Next()
		buf = fr.buf
		if err == io.EOF && to == math.MaxUint64 {
			break
		}
		if err != nil {
			return corrupt(err)
		}
		if seq == 0 {
			return corrupt("control frame in a segment")
		}
		info.last = seq
		info.size += int64(len(buf))
		if fn != nil {
			if err := fn(seq, buf); err != nil {
				return info, buf, err
			}
		}
	}
	return info, buf, nil
}

// syncLoop is the SyncInterval driver.
func (l *Log) syncLoop() {
	for {
		select {
		case <-l.tick.C:
			l.mu.Lock()
			l.syncLocked()
			l.mu.Unlock()
		case <-l.tickDone:
			return
		}
	}
}

// NextSeq returns the sequence number the next append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Policy returns the fsync policy the log was opened with.
func (l *Log) Policy() SyncPolicy { return l.opts.Policy }

// TruncatedBytes returns how many torn-tail bytes Open discarded — the
// recovery diagnostic for "the previous process died mid-write".
func (l *Log) TruncatedBytes() int64 { return l.truncated }

// AppendEdges journals one committed batch of edge ops — Append over an
// edge record, kept for callers that time the journal stage alone. The
// frame is encoded into a scratch buffer reused across calls: the hot
// path allocates nothing at steady state.
func (l *Log) AppendEdges(ops []graph.EdgeOp) (uint64, error) {
	return l.Append(&Record{Kind: RecEdges, Edges: ops})
}

// Append journals rec as the next record and returns its seq. A zero
// rec.Seq takes the journal's next seq (a leader's write); any other must
// be exactly that seq — a follower re-appending the leader's history, so
// the two journals stay frame-identical. A script record must hold
// exactly the ops that were applied, so replay reproduces the partial
// application a failed script leaves behind.
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if rec.Seq != 0 && rec.Seq != l.nextSeq {
		return 0, fmt.Errorf("wal: record seq %d does not follow the journal tail (next %d)", rec.Seq, l.nextSeq)
	}
	b, err := appendBody(StartFrame(l.buf[:0], l.nextSeq, rec.Kind), rec)
	if err != nil {
		return 0, err
	}
	return l.finishFrame(b)
}

// appendBody encodes rec's kind-specific body — the inverse of
// DecodePayload's switch.
func appendBody(b []byte, rec *Record) ([]byte, error) {
	switch rec.Kind {
	case RecEdges:
		b = binary.AppendUvarint(b, uint64(len(rec.Edges)))
		for _, op := range rec.Edges {
			flags := byte(op.Kind) << 1
			if op.Insert {
				flags |= 1
			}
			b = append(b, flags)
			b = binary.AppendUvarint(b, uint64(op.U))
			b = binary.AppendUvarint(b, uint64(op.V))
		}
	case RecScript:
		b = binary.AppendUvarint(b, uint64(len(rec.Script)))
		for _, op := range rec.Script {
			b = append(b, byte(op.Kind))
			switch op.Kind {
			case opscript.Insert:
				b = binary.AppendUvarint(b, uint64(op.U))
				b = binary.AppendUvarint(b, uint64(op.V))
				b = append(b, byte(op.Edge))
			case opscript.Delete:
				b = binary.AppendUvarint(b, uint64(op.U))
				b = binary.AppendUvarint(b, uint64(op.V))
			case opscript.AddNode:
				b = appendString(b, op.Label)
				b = binary.AppendUvarint(b, uint64(op.V))
			case opscript.DelNode, opscript.DelSub:
				b = binary.AppendUvarint(b, uint64(op.U))
			default:
				return b, fmt.Errorf("wal: cannot journal op kind %v", op.Kind)
			}
		}
	case RecSubgraph:
		p := rec.Sub
		if len(p.Labels) != len(p.Values) || len(p.Edges) != len(p.EdgeKinds) {
			return b, fmt.Errorf("wal: malformed subgraph payload")
		}
		b = binary.AppendUvarint(b, uint64(len(p.Labels)))
		for i := range p.Labels {
			b = appendString(b, p.Labels[i])
			b = appendString(b, p.Values[i])
		}
		b = binary.AppendUvarint(b, uint64(len(p.Edges)))
		for i, e := range p.Edges {
			b = binary.AppendUvarint(b, uint64(e[0]))
			b = binary.AppendUvarint(b, uint64(e[1]))
			b = append(b, byte(p.EdgeKinds[i]))
		}
		for _, cross := range [2][]graph.CrossEdge{p.CrossIn, p.CrossOut} {
			b = binary.AppendUvarint(b, uint64(len(cross)))
			for _, c := range cross {
				b = binary.AppendUvarint(b, uint64(c.Outside))
				b = binary.AppendUvarint(b, uint64(c.Local))
				b = append(b, byte(c.Kind))
			}
		}
	default:
		return b, fmt.Errorf("wal: cannot append record kind %d", rec.Kind)
	}
	return b, nil
}

// finishFrame seals the frame, writes it, and applies the per-append
// fsync policy. l.mu held.
func (l *Log) finishFrame(b []byte) (uint64, error) {
	l.buf = b[:0] // retain grown capacity whatever happens below
	if err := l.write(SealFrame(b)); err != nil {
		l.fail(err)
		return 0, l.err
	}
	seq := l.nextSeq
	l.nextSeq++
	l.dirty = true
	l.appended.Store(seq)
	l.appends.Add(1)
	l.wake()
	if len(l.segs) > 0 {
		s := &l.segs[len(l.segs)-1]
		s.last = seq
		s.size = l.segSize
	}
	if l.opts.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// write puts one encoded frame into the active segment, rolling or
// creating segments as needed. l.mu held.
func (l *Log) write(frame []byte) error {
	if l.f != nil && l.segSize+int64(len(frame)) > l.opts.SegmentBytes && l.segSize > int64(len(segMagic)) {
		if err := l.roll(); err != nil {
			return err
		}
	}
	if l.f == nil {
		if err := l.newSegment(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	l.segSize += int64(len(frame))
	return nil
}

// roll seals the active segment (final fsync, close) so a fresh one is
// created for the next write. l.mu held.
func (l *Log) roll() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f = nil
	l.segSize = 0
	return nil
}

// newSegment creates the segment whose first record will be nextSeq.
// l.mu held.
func (l *Log) newSegment() error {
	path := filepath.Join(l.dir, segName(l.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segSize = int64(len(segMagic))
	l.segs = append(l.segs, segInfo{path: path, first: l.nextSeq, last: l.nextSeq - 1, size: l.segSize})
	return SyncDir(l.dir)
}

// Sync forces appended frames to disk. Under SyncWindow the committer
// calls this once per commit window, before acknowledging the window's
// waiters; it is also the explicit durability barrier for the other
// policies.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty || l.f == nil {
		l.durable.Store(l.appended.Load())
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.fail(err)
		return l.err
	}
	l.dirty = false
	l.syncs.Add(1)
	l.durable.Store(l.appended.Load())
	l.wake()
	return nil
}

// fail records a sticky write failure: a journal that could not persist
// a frame must not accept later frames (the sequence would have a hole
// after recovery), so every subsequent append returns the original
// cause. l.mu held.
func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = fmt.Errorf("wal: journal failed, store is read-only: %w", err)
	}
}

// Close seals the journal: final fsync (all policies) and file close.
// The Log must not be used afterwards.
func (l *Log) Close() error {
	if l.tick != nil {
		l.tick.Stop()
		close(l.tickDone)
		l.tick = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	syncErr := l.syncLocked()
	if l.f != nil {
		if err := l.f.Close(); err != nil && syncErr == nil {
			syncErr = err
		}
		l.f = nil
	}
	if l.err != nil && !errors.Is(syncErr, l.err) {
		return l.err
	}
	return syncErr
}

// Replay streams every record with seq ≥ from, in order, to fn: ReplayRaw
// over the whole retained journal, each frame decoded. The segments were
// validated by Open, so damage here (a file mutated underneath a live
// Log) is ErrCorrupt, not a torn tail; a journal that no longer reaches
// back to from is ErrGap. Replay may run concurrently with appends; it
// observes at least every record appended before the call.
func (l *Log) Replay(from uint64, fn func(*Record) error) error {
	return l.ReplayRaw(from, math.MaxUint64, func(_ uint64, frame []byte) error {
		rec, err := DecodePayload(frame[frameHeader:])
		if err != nil {
			return err
		}
		return fn(rec)
	})
}

// RemoveBelow deletes every sealed segment whose records all precede
// seq (i.e. last < seq). The active (newest) segment is always kept, so
// the sequence space stays anchored on disk.
func (l *Log) RemoveBelow(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := l.segs[:0]
	var firstErr error
	for i, s := range l.segs {
		if i < len(l.segs)-1 && s.last < seq {
			if err := os.Remove(s.path); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("wal: %w", err)
				keep = append(keep, s)
			}
			continue
		}
		keep = append(keep, s)
	}
	l.segs = keep
	if firstErr == nil {
		firstErr = SyncDir(l.dir)
	}
	return firstErr
}

// Stats is a point-in-time durability report.
type Stats struct {
	Policy         SyncPolicy
	NextSeq        uint64 // sequence number of the next append
	AppendedSeq    uint64
	DurableSeq     uint64 // newest fsynced sequence number
	Segments       int
	Bytes          int64 // bytes across live segments
	Appends        int64
	Syncs          int64
	TruncatedBytes int64 // torn bytes dropped at Open
}

// Stats returns current counters; safe alongside appends.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var bytes int64
	for _, s := range l.segs {
		bytes += s.size
	}
	return Stats{
		Policy:         l.opts.Policy,
		NextSeq:        l.nextSeq,
		AppendedSeq:    l.appended.Load(),
		DurableSeq:     l.durable.Load(),
		Segments:       len(l.segs),
		Bytes:          bytes,
		Appends:        l.appends.Load(),
		Syncs:          l.syncs.Load(),
		TruncatedBytes: l.truncated,
	}
}

// ---- decoding ----

// reader is a bounds-checked cursor over one frame payload.
type reader struct {
	b   []byte
	pos int
	bad bool
}

// uvarint reads a minimally encoded uvarint: binary.Uvarint also takes a
// padded form (80 00 for 0), which would decode to a record the encoder
// never writes.
func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 || n > 1 && r.b[r.pos+n-1] == 0 {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

// int32 reads what the encoder writes for an int32 (a NodeID or a local
// index): the uvarint of its sign extension. Anything else would wrap.
func (r *reader) int32() int32 {
	v := r.uvarint()
	if int64(v) != int64(int32(v)) {
		r.bad = true
	}
	return int32(v)
}

func (r *reader) node() graph.NodeID { return graph.NodeID(r.int32()) }

// kind reads an edge kind byte; only tree and idref exist.
func (r *reader) kind() graph.EdgeKind {
	k := graph.EdgeKind(r.byte())
	if k != graph.Tree && k != graph.IDRef {
		r.bad = true
	}
	return k
}

func (r *reader) byte() byte {
	if r.pos >= len(r.b) {
		r.bad = true
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

func (r *reader) string() string {
	n := r.uvarint()
	if r.bad || uint64(len(r.b)-r.pos) < n {
		r.bad = true
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// DecodePayload decodes one frame payload into a Record — the inverse of
// Append's encoder, for Replay and for stream consumers that receive raw
// frames. It is canonical: it accepts only what the encoder writes (node
// ids and local indexes that fit an int32, the two edge kinds, minimal
// varints), so an accepted payload re-encodes byte for byte.
func DecodePayload(payload []byte) (*Record, error) {
	r := &reader{b: payload}
	rec := &Record{Seq: r.uvarint(), Kind: RecordKind(r.byte())}
	switch rec.Kind {
	case RecEdges:
		n := r.uvarint()
		if r.bad || n > uint64(len(payload)) {
			return nil, fmt.Errorf("wal: bad edges record")
		}
		rec.Edges = make([]graph.EdgeOp, 0, n)
		for i := uint64(0); i < n; i++ {
			flags := r.byte()
			if flags > byte(graph.IDRef)<<1|1 {
				r.bad = true
			}
			op := graph.EdgeOp{Insert: flags&1 != 0, Kind: graph.EdgeKind(flags >> 1), U: r.node(), V: r.node()}
			rec.Edges = append(rec.Edges, op)
		}
	case RecScript:
		n := r.uvarint()
		if r.bad || n > uint64(len(payload)) {
			return nil, fmt.Errorf("wal: bad script record")
		}
		rec.Script = make([]opscript.Op, 0, n)
		for i := uint64(0); i < n; i++ {
			var op opscript.Op
			op.Kind = opscript.Kind(r.byte())
			switch op.Kind {
			case opscript.Insert:
				op.U, op.V, op.Edge = r.node(), r.node(), r.kind()
			case opscript.Delete:
				op.U, op.V = r.node(), r.node()
			case opscript.AddNode:
				op.Label, op.V = r.string(), r.node()
			case opscript.DelNode, opscript.DelSub:
				op.U = r.node()
			default:
				return nil, fmt.Errorf("wal: bad script op kind %d", op.Kind)
			}
			rec.Script = append(rec.Script, op)
		}
	case RecSubgraph:
		n := r.uvarint()
		if r.bad || n > uint64(len(payload)) {
			return nil, fmt.Errorf("wal: bad subgraph record")
		}
		p := &SubgraphPayload{
			Labels: make([]string, 0, n),
			Values: make([]string, 0, n),
		}
		for i := uint64(0); i < n; i++ {
			p.Labels = append(p.Labels, r.string())
			p.Values = append(p.Values, r.string())
		}
		ne := r.uvarint()
		if r.bad || ne > uint64(len(payload)) {
			return nil, fmt.Errorf("wal: bad subgraph record")
		}
		for i := uint64(0); i < ne; i++ {
			p.Edges = append(p.Edges, [2]int32{r.int32(), r.int32()})
			p.EdgeKinds = append(p.EdgeKinds, r.kind())
		}
		for pass := 0; pass < 2; pass++ {
			nc := r.uvarint()
			if r.bad || nc > uint64(len(payload)) {
				return nil, fmt.Errorf("wal: bad subgraph record")
			}
			cross := make([]graph.CrossEdge, 0, nc)
			for i := uint64(0); i < nc; i++ {
				cross = append(cross, graph.CrossEdge{Outside: r.node(), Local: r.int32(), Kind: r.kind()})
			}
			if pass == 0 {
				p.CrossIn = cross
			} else {
				p.CrossOut = cross
			}
		}
		rec.Sub = p
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	if r.bad || r.pos != len(payload) {
		return nil, fmt.Errorf("wal: record %d: malformed body", rec.Seq)
	}
	return rec, nil
}

// SyncDir fsyncs a directory so renames/creates/removes are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
