package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"structix/internal/graph"
	"structix/internal/repl"
	"structix/internal/wal"
)

// damageRows is the one table of frame-level damage. Every row starts from
// the same journal — records 1..5, one edge op each — and says what stands
// in place of frames[3:], the bytes from record 4 on. TestFrameDamage feeds
// those same bytes to every consumer of the frame format.
var damageRows = []struct {
	name   string
	damage func(frames [][]byte) []byte
}{
	{"zero length", func(f [][]byte) []byte { return cat(withLength(f[3], 0), f[4]) }},
	{"length > max", func(f [][]byte) []byte { return cat(withLength(f[3], 1<<30+1), f[4]) }},
	{"length past EOF", func(f [][]byte) []byte { return cat(withLength(f[3], 1<<20), f[4]) }},
	{"torn header", func(f [][]byte) []byte { return f[3][:5] }},
	{"torn payload", func(f [][]byte) []byte { return f[3][:len(f[3])-2] }},
	{"flipped payload bit", func(f [][]byte) []byte {
		bad := bytes.Clone(f[3])
		bad[len(bad)-1] ^= 0x01
		return cat(bad, f[4])
	}},
	{"seq skips", func(f [][]byte) []byte { return f[4] }},                    // record 5 where 4 is due
	{"seq repeats", func(f [][]byte) []byte { return cat(f[2], f[3], f[4]) }}, // record 3 again
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// withLength returns a copy of frame whose length word reads n.
func withLength(frame []byte, n uint32) []byte {
	c := bytes.Clone(frame)
	binary.LittleEndian.PutUint32(c[0:4], n)
	return c
}

func appendEdges(t testing.TB, l *wal.Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.AppendEdges([]graph.EdgeOp{graph.InsertOp(graph.NodeID(i), graph.NodeID(i+1), graph.Tree)}); err != nil {
			t.Fatal(err)
		}
	}
}

// segmentFrames journals what fill appends into a fresh directory and
// returns the single segment's frames, split by ReadFrame itself.
func segmentFrames(t testing.TB, fill func(*wal.Log)) [][]byte {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	fill(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, wal.SegName(1)))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data[len(wal.SegMagic):])
	var frames [][]byte
	for {
		_, frame, err := wal.ReadFrame(r, nil)
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
}

func writeSegment(t *testing.T, dir string, first uint64, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, wal.SegName(first)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// replayedSeqs runs replay and returns the seqs it delivered before failing.
func replayedSeqs(replay func(note func(seq uint64)) error) ([]uint64, error) {
	var seqs []uint64
	err := replay(func(seq uint64) { seqs = append(seqs, seq) })
	return seqs, err
}

// countingApplier is a follower store parked at seq 3 that counts what the
// stream loop hands it.
type countingApplier struct{ applied atomic.Int64 }

func (a *countingApplier) ApplyRecord(*wal.Record) error { a.applied.Add(1); return nil }
func (a *countingApplier) Seq() uint64                   { return 3 }
func (a *countingApplier) EndWindow() error              { return nil }

// TestFrameDamage: one classification per row, from every consumer of the
// frame format, over the same damaged bytes — Open on a final segment
// truncates exactly the damage, Open on a sealed segment and Replay /
// ReplayRaw under a live log report ErrCorrupt (never a bare I/O error),
// and a follower's stream loop reconnects having applied nothing.
func TestFrameDamage(t *testing.T) {
	frames := segmentFrames(t, func(l *wal.Log) { appendEdges(t, l, 5) })
	if len(frames) != 5 {
		t.Fatalf("fixture journal has %d frames, want 5", len(frames))
	}
	intact := []uint64{1, 2, 3}
	for _, row := range damageRows {
		t.Run(row.name, func(t *testing.T) {
			tail := row.damage(frames)
			seg := cat([]byte(wal.SegMagic), frames[0], frames[1], frames[2], tail)

			// Final segment: the damage is a torn tail, dropped to the byte.
			dir := t.TempDir()
			writeSegment(t, dir, 1, seg)
			l, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatalf("Open on a damaged final segment: %v", err)
			}
			if got := l.TruncatedBytes(); got != int64(len(tail)) {
				t.Errorf("TruncatedBytes = %d, want exactly the %d damaged bytes", got, len(tail))
			}
			if got := l.NextSeq(); got != 4 {
				t.Errorf("NextSeq = %d, want 4", got)
			}
			// The repaired log still accepts appends and replays them.
			if seq, err := l.AppendEdges([]graph.EdgeOp{graph.DeleteOp(1, 2)}); err != nil || seq != 4 {
				t.Fatalf("append after repair: seq %d, err %v", seq, err)
			}
			seqs, err := replayedSeqs(func(note func(uint64)) error {
				return l.Replay(1, func(rec *wal.Record) error { note(rec.Seq); return nil })
			})
			if err != nil || !reflect.DeepEqual(seqs, []uint64{1, 2, 3, 4}) {
				t.Errorf("replay after repair: %v, err %v", seqs, err)
			}
			l.Close()

			// Sealed segment: the same bytes with a segment after them.
			dir = t.TempDir()
			writeSegment(t, dir, 1, seg)
			writeSegment(t, dir, 6, []byte(wal.SegMagic))
			if _, err := wal.Open(dir, wal.Options{}); !errors.Is(err, wal.ErrCorrupt) {
				t.Errorf("Open on a damaged sealed segment: %v, want ErrCorrupt", err)
			}

			// A segment mutated underneath a live log that validated it.
			dir = t.TempDir()
			if l, err = wal.Open(dir, wal.Options{}); err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			appendEdges(t, l, 5)
			writeSegment(t, dir, 1, seg)
			for name, replay := range map[string]func(note func(uint64)) error{
				"Replay": func(note func(uint64)) error {
					return l.Replay(1, func(rec *wal.Record) error { note(rec.Seq); return nil })
				},
				"ReplayRaw": func(note func(uint64)) error {
					return l.ReplayRaw(1, 5, func(seq uint64, _ []byte) error { note(seq); return nil })
				},
			} {
				if seqs, err := replayedSeqs(replay); !errors.Is(err, wal.ErrCorrupt) || !reflect.DeepEqual(seqs, intact) {
					t.Errorf("%s over the mutated segment: delivered %v, err %v; want %v then ErrCorrupt", name, seqs, err, intact)
				}
			}

			// A follower at seq 3 whose leader streams the damaged bytes.
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write(tail)
			}))
			defer srv.Close()
			ap := &countingApplier{}
			r := repl.Start(repl.Config{Leader: srv.URL, MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}, ap)
			for deadline := time.Now().Add(15 * time.Second); r.Stats().Reconnects < 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("follower never reconnected over the damaged stream")
				}
			}
			r.Stop()
			if st := r.Stats(); ap.applied.Load() != 0 || st.LastError == "" || st.ResyncRequired {
				t.Errorf("follower applied %d records from the damaged stream, stats %+v; want none, a stream error and a plain reconnect", ap.applied.Load(), st)
			}
		})
	}
}

// TestReadFrameBoundsAllocation: a torn stream whose length word claims
// 1 GiB must cost what it delivered, not what it claimed.
func TestReadFrameBoundsAllocation(t *testing.T) {
	torn := withLength(make([]byte, wal.FrameHeader+4), 1<<30-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := wal.ReadFrame(bytes.NewReader(torn), nil)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("ReadFrame allocated %d bytes for a 12-byte torn stream, want < 2 MiB", got)
	}
}

// laxFrames are record bodies a decoder that was not canonical accepted:
// each decoded to a record the encoder never writes.
var laxFrames = []struct {
	kind wal.RecordKind
	body []byte
}{
	{wal.RecEdges, []byte{1, 7<<1 | 1, 0x80, 0x80, 0x80, 0x80, 0x10, 1}},            // insert 4294967296→1, kind 7
	{wal.RecEdges, []byte{1, 1, 0x80, 0x00, 1}},                                     // insert 0→1, id padded
	{wal.RecScript, []byte{1, 0, 1, 2, 7}},                                          // insert 1→2, kind 7
	{wal.RecSubgraph, []byte{2, 0, 0, 0, 0, 1, 0, 1, 9, 0, 0}},                      // edge 0→1, kind 9
	{wal.RecSubgraph, []byte{1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0}}, // cross-in from 2^32-1
}

// TestDecodeRejectsLaxFrames: the decoder refuses every lax frame, so a
// follower never applies a record the leader did not write.
func TestDecodeRejectsLaxFrames(t *testing.T) {
	for _, c := range laxFrames {
		b := append(wal.StartFrame(nil, 1, c.kind), c.body...)
		if rec, err := wal.DecodePayload(b[wal.FrameHeader:]); err == nil {
			t.Errorf("%s body %x decoded to %+v", c.kind, c.body, rec)
		}
	}
}

// FuzzReadFrame: over arbitrary bytes ReadFrame never panics, never
// allocates beyond what the input delivered plus one chunk (with the
// growth slack of append), and a frame it accepts is exactly what the
// sealer would have written for that payload. A payload DecodePayload
// accepts re-encodes byte for byte: the decoder is canonical, so a
// follower applies exactly the record the leader wrote. The crafted seeds
// are frames a lax decoder took: a node id past 32 bits, an unknown edge
// kind, a padded varint.
func FuzzReadFrame(f *testing.F) {
	frames := segmentFrames(f, func(l *wal.Log) { appendEdges(f, l, 5) })
	for _, row := range damageRows {
		f.Add(row.damage(frames))
	}
	for _, frame := range segmentFrames(f, func(l *wal.Log) { wal.AppendPinnedScript(f, l) }) {
		f.Add(frame) // one valid frame of each record kind
	}
	for _, c := range laxFrames {
		f.Add(wal.SealFrame(append(wal.StartFrame(nil, 1, c.kind), c.body...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The input as a payload, too: the CRC keeps random frames from
		// ever reaching the decoder.
		canonicalPayload(t, data)
		r := bytes.NewReader(data)
		payload, buf, err := wal.ReadFrame(r, nil)
		if limit := 2 * (len(data) + wal.FrameChunk); cap(buf) > limit {
			t.Fatalf("buffer grew to %d over a %d-byte input (limit %d)", cap(buf), len(data), limit)
		}
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		if resealed := wal.SealFrame(append(make([]byte, wal.FrameHeader), payload...)); !bytes.Equal(resealed, consumed) {
			t.Fatalf("accepted frame %x re-seals to %x", consumed, resealed)
		}
		canonicalPayload(t, payload)
	})
}

// canonicalPayload checks that a payload DecodePayload accepts re-encodes
// to exactly its bytes.
func canonicalPayload(t *testing.T, payload []byte) {
	rec, err := wal.DecodePayload(payload)
	if err != nil {
		return
	}
	b, err := wal.AppendBody(wal.StartFrame(nil, rec.Seq, rec.Kind), rec)
	if err != nil {
		t.Fatalf("decoded record %+v does not re-encode: %v", rec, err)
	}
	if !bytes.Equal(b[wal.FrameHeader:], payload) {
		t.Fatalf("payload %x decodes to %+v, which re-encodes to %x", payload, rec, b[wal.FrameHeader:])
	}
}
