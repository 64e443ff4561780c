package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

const (
	frameHeader = 8       // 4-byte length + 4-byte CRC
	maxFrame    = 1 << 30 // sanity bound on a single payload
	// frameChunk is how far ReadFrame trusts a length word ahead of the
	// bytes the source has actually delivered.
	frameChunk = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// StartFrame begins a frame in buf: header space, then the record header
// (seq, kind). Callers append the body and hand the result to SealFrame.
func StartFrame(buf []byte, seq uint64, kind RecordKind) []byte {
	b := append(buf, make([]byte, frameHeader)...)
	b = binary.AppendUvarint(b, seq)
	return append(b, byte(kind))
}

// SealFrame fills in the header (payload length, CRC-32C) of a frame
// begun with StartFrame and returns it whole. It is the only writer of
// the frame format.
func SealFrame(b []byte) []byte {
	payload := b[frameHeader:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	return b
}

// ReadFrame reads one frame off r into buf (grown as needed and returned
// holding the whole frame, header included) and returns its payload. It
// is the only parser of the frame format: every consumer — Open's scan,
// Replay, ReplayRaw, a follower's stream loop — gets the same length
// bounds and CRC check from here.
//
// io.EOF means r ended cleanly between frames; a source that ends inside
// a frame gives io.ErrUnexpectedEOF. The length word is untrusted: the
// buffer grows a chunk at a time as payload bytes actually arrive, so a
// frame claiming N bytes over a source that delivers M allocates
// O(M + one chunk), and a buffer that already fits costs nothing.
func ReadFrame(r io.Reader, buf []byte) (payload, _ []byte, err error) {
	buf = slices.Grow(buf[:0], frameHeader)[:frameHeader]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	if n == 0 || n > maxFrame {
		return nil, buf, fmt.Errorf("wal: implausible frame length %d", n)
	}
	for have := frameHeader; have < frameHeader+n; have = len(buf) {
		end := min(frameHeader+n, max(cap(buf), have+frameChunk))
		buf = slices.Grow(buf, end-have)[:end]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, buf[:have], err
		}
	}
	payload = buf[frameHeader:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, buf, fmt.Errorf("wal: frame CRC mismatch")
	}
	return payload, buf, nil
}

// FrameReader walks the frames of one source — a segment file past its
// magic, or one replication stream connection — checking, on top of
// ReadFrame, that record sequence numbers run contiguously. Control
// frames (seq 0, which no journal record carries) pass through without
// advancing the expectation.
type FrameReader struct {
	r    io.Reader
	buf  []byte // the last frame, whole; reused by the next call
	next uint64 // seq the next record frame must carry
}

// NewFrameReader reads frames off r, the first record of which must carry
// seq first.
func NewFrameReader(r io.Reader, first uint64) *FrameReader {
	return &FrameReader{r: r, next: first}
}

// Next returns the next frame's record header and payload; the payload is
// valid until the following call. Errors are ReadFrame's, plus a record
// header that does not parse or breaks the sequence.
func (fr *FrameReader) Next() (seq uint64, kind RecordKind, payload []byte, err error) {
	payload, fr.buf, err = ReadFrame(fr.r, fr.buf)
	if err != nil {
		return 0, 0, nil, err
	}
	seq, n := binary.Uvarint(payload)
	if n <= 0 || n >= len(payload) {
		return 0, 0, nil, fmt.Errorf("wal: bad record header")
	}
	if seq != 0 {
		if seq != fr.next {
			return 0, 0, nil, fmt.Errorf("wal: frame carries seq %d, want %d", seq, fr.next)
		}
		fr.next++
	}
	return seq, RecordKind(payload[n]), payload, nil
}
