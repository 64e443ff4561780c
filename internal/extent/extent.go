// Package extent provides the pluggable storage representation for index
// extents: the sorted dnode sets that every inode of the 1-index and
// A(k)-index families owns. Snapshots freeze each extent into a View —
// either the classic dense []graph.NodeID slice or a compressed block
// encoding (sorted delta-varint runs, with roaring-style bitmap blocks for
// dense regions) — and the query evaluators union and intersect Views
// directly on the compressed blocks through streaming cursors, never
// materializing a whole decompressed extent.
//
// # Encoding
//
// A compressed extent is laid out as
//
//	uvarint(card) block*
//
// where card is the extent cardinality and the blocks partition the ids by
// their high 16 bits (hi = id>>16), in ascending hi order:
//
//	block := uvarint(hiDelta) kind:byte body
//
// The first block stores hi directly; every later block stores the
// difference to the previous block's hi (≥ 1). The kind byte selects the
// body:
//
//	kind 0 (array):  uvarint(n) uvarint(bodyBytes) then the body — a
//	                 uvarint holding the low 16 bits of the block's first
//	                 id, followed by the remaining n-1 lows as bit-packed
//	                 gap groups (gap = delta-1; see packed.go): groups of
//	                 up to 16 gaps, each prefixed by a byte giving the
//	                 minimal bit width of its gaps.
//	kind 1 (bitmap): uvarint(n) then exactly 8192 bytes — a 65536-bit
//	                 little-endian bitmap of the lows, whose popcount is n.
//
// A block holds between 1 and 65536 ids. The encoder switches from array
// to bitmap when a block's cardinality exceeds arrayCutoff (16384): past
// that density the mean gap drops under 4 and the bit-packed body stops
// undercutting the fixed 8 KiB bitmap, whose membership tests are O(1).
// bodyBytes on array blocks lets cursors skip a whole block without
// decoding it.
//
// Encoding is canonical: FromEncoded rejects array blocks above the
// cutoff, bitmap blocks at or below it, non-minimal group widths, nonzero
// padding bits, out-of-range lows, popcount mismatches, and trailing
// bytes — so decode∘encode is the identity on bytes as well as on sets,
// and fuzzing the decoder cannot smuggle a non-canonical alias past a
// round-trip check.
//
// # Codec choice
//
// The codec is chosen per index (Index.SetSnapshotCodec; a served store
// always freezes Dense), but Compressed still decides per extent: if the
// block encoding does not beat the dense slice's 4 bytes/id it keeps the
// extent dense. Mixed representations are therefore normal inside one
// snapshot, and View hides the difference.
package extent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"structix/internal/graph"
)

// Codec selects the extent representation snapshots freeze into.
type Codec uint8

const (
	// Dense stores every extent as the classic sorted []graph.NodeID
	// slice: 4 bytes per id, no decode cost. The zero value, and the
	// representation every maintenance path works in.
	Dense Codec = iota
	// Compressed stores extents as delta-varint/bitmap blocks when that
	// is smaller than dense, per extent; see the package comment.
	Compressed
)

// String names the codec as spelled on command lines and in stats.
func (c Codec) String() string {
	switch c {
	case Dense:
		return "dense"
	case Compressed:
		return "compressed"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

const (
	// arrayCutoff is the per-block density threshold: blocks with more
	// ids become bitmaps. At 16384 ids in a 65536-id block the mean gap
	// is 4, gap groups need ~4 bits per id, and the array body reaches
	// the fixed 8192-byte bitmap's cost — beyond it the bitmap is both
	// smaller and O(1) to probe.
	arrayCutoff = 16384
	bitmapBytes = 8192   // 65536 bits
	maxHi       = 0x7FFF // ids are non-negative int32: hi has 15 usable bits
)

// View is one frozen extent: an immutable, sorted set of dnode ids in
// either dense or compressed form. The zero View is the empty extent.
// Views are values — copying one shares the underlying storage — and all
// storage they reference is read-only: Views may be read from any number
// of goroutines concurrently.
type View struct {
	dense []graph.NodeID // sorted unique; nil iff compressed or empty
	enc   []byte         // block encoding; nil iff dense or empty
	card  int
}

// FromSorted freezes ids — which must be sorted, duplicate-free and
// non-negative — into a View under the codec. The View takes ownership of
// the slice (dense representations alias it), so the caller must not
// mutate ids afterwards; snapshot code passes freshly built slices.
func FromSorted(ids []graph.NodeID, c Codec) View {
	for i, id := range ids {
		if id < 0 || (i > 0 && ids[i-1] >= id) {
			panic("extent: FromSorted input not sorted unique non-negative")
		}
	}
	if len(ids) == 0 {
		return View{}
	}
	if c == Compressed {
		if enc := encodeBlocks(nil, ids); len(enc) < 4*len(ids) {
			return View{enc: enc, card: len(ids)}
		}
	}
	return View{dense: ids, card: len(ids)}
}

// encodeBlocks appends the canonical block encoding of ids to dst.
func encodeBlocks(dst []byte, ids []graph.NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	prevHi := uint32(0)
	first := true
	for start := 0; start < len(ids); {
		hi := uint32(ids[start]) >> 16
		end := start + 1
		for end < len(ids) && uint32(ids[end])>>16 == hi {
			end++
		}
		delta := hi
		if !first {
			delta = hi - prevHi
		}
		first, prevHi = false, hi
		dst = binary.AppendUvarint(dst, uint64(delta))
		n := end - start
		if n > arrayCutoff {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(n))
			var bm [bitmapBytes]byte
			for _, id := range ids[start:end] {
				low := uint32(id) & 0xFFFF
				bm[low>>3] |= 1 << (low & 7)
			}
			dst = append(dst, bm[:]...)
		} else {
			dst = append(dst, 0)
			dst = binary.AppendUvarint(dst, uint64(n))
			// Worst-case body: 3-byte first low + ceil(4095/16) groups of
			// 1 width byte + 32 payload bytes.
			var body [3 + (arrayCutoff/groupSize)*(1+2*groupSize)]byte
			var gapbuf [arrayCutoff]uint16
			b := body[:0]
			gaps := gapbuf[:0]
			prev := uint32(0)
			for i, id := range ids[start:end] {
				low := uint32(id) & 0xFFFF
				if i == 0 {
					b = binary.AppendUvarint(b, uint64(low))
				} else {
					gaps = append(gaps, uint16(low-prev-1))
				}
				prev = low
			}
			b = appendGapGroups(b, gaps)
			dst = binary.AppendUvarint(dst, uint64(len(b)))
			dst = append(dst, b...)
		}
		start = end
	}
	return dst
}

// ErrCorrupt is wrapped by every FromEncoded validation failure.
var ErrCorrupt = errors.New("extent: corrupt encoding")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// FromEncoded validates enc as a canonical compressed extent and wraps it
// in a View sharing the bytes. Truncated, trailing, non-canonical or
// otherwise malformed input returns an error wrapping ErrCorrupt; the
// function never panics and never reads past len(enc).
func FromEncoded(enc []byte) (View, error) {
	card64, pos := binary.Uvarint(enc)
	if pos <= 0 {
		return View{}, corrupt("bad cardinality varint")
	}
	if card64 > uint64(maxHi+1)<<16 {
		return View{}, corrupt("cardinality %d exceeds id space", card64)
	}
	card := int(card64)
	seen := 0
	hi := uint32(0)
	first := true
	for pos < len(enc) {
		delta, n := binary.Uvarint(enc[pos:])
		if n <= 0 {
			return View{}, corrupt("bad hi-delta varint at %d", pos)
		}
		pos += n
		if !first && delta == 0 {
			return View{}, corrupt("zero hi-delta (blocks must ascend)")
		}
		nhi := uint64(hi) + delta
		if first {
			nhi = delta
		}
		first = false
		if nhi > maxHi {
			return View{}, corrupt("block hi %d out of id range", nhi)
		}
		hi = uint32(nhi)
		if pos >= len(enc) {
			return View{}, corrupt("missing block kind byte")
		}
		kind := enc[pos]
		pos++
		cnt64, n := binary.Uvarint(enc[pos:])
		if n <= 0 {
			return View{}, corrupt("bad block cardinality varint at %d", pos)
		}
		pos += n
		cnt := int(cnt64)
		switch kind {
		case 0:
			if cnt < 1 || cnt > arrayCutoff {
				return View{}, corrupt("array block cardinality %d out of [1,%d]", cnt, arrayCutoff)
			}
			body64, n := binary.Uvarint(enc[pos:])
			if n <= 0 {
				return View{}, corrupt("bad array body-length varint at %d", pos)
			}
			pos += n
			if body64 > uint64(len(enc)-pos) {
				return View{}, corrupt("array body length %d overruns input", body64)
			}
			body := enc[pos : pos+int(body64)]
			pos += int(body64)
			low64, n := binary.Uvarint(body)
			if n <= 0 {
				return View{}, corrupt("bad first-low varint in array block")
			}
			if low64 > 0xFFFF {
				return View{}, corrupt("array block first low %d exceeds 16 bits", low64)
			}
			bp, low := n, uint32(low64)
			for g, gaps := 0, cnt-1; g < gaps; {
				if bp >= len(body) {
					return View{}, corrupt("truncated gap-group header in array block")
				}
				width := uint(body[bp])
				bp++
				if width > 16 {
					return View{}, corrupt("gap-group width %d exceeds 16 bits", width)
				}
				k := gaps - g
				if k > groupSize {
					k = groupSize
				}
				nbytes := (k*int(width) + 7) / 8
				if len(body)-bp < nbytes {
					return View{}, corrupt("truncated gap-group payload in array block")
				}
				var acc uint64
				var nb uint
				maxGap := uint32(0)
				for i := 0; i < k; i++ {
					for nb < width {
						acc |= uint64(body[bp]) << nb
						bp++
						nb += 8
					}
					gap := uint32(acc & (1<<width - 1))
					acc >>= width
					nb -= width
					if gap > maxGap {
						maxGap = gap
					}
					low += gap + 1
					if low > 0xFFFF {
						return View{}, corrupt("array block low %d exceeds 16 bits", low)
					}
				}
				if acc != 0 {
					return View{}, corrupt("nonzero padding bits in gap group")
				}
				if bits.Len32(maxGap) != int(width) {
					return View{}, corrupt("non-minimal gap-group width %d for max gap %d", width, maxGap)
				}
				g += k
			}
			if bp != len(body) {
				return View{}, corrupt("array block body has %d trailing bytes", len(body)-bp)
			}
		case 1:
			if cnt <= arrayCutoff || cnt > 1<<16 {
				return View{}, corrupt("bitmap block cardinality %d out of (%d,65536]", cnt, arrayCutoff)
			}
			if len(enc)-pos < bitmapBytes {
				return View{}, corrupt("truncated bitmap block")
			}
			pop := 0
			for _, b := range enc[pos : pos+bitmapBytes] {
				pop += bits.OnesCount8(b)
			}
			if pop != cnt {
				return View{}, corrupt("bitmap popcount %d != stated cardinality %d", pop, cnt)
			}
			pos += bitmapBytes
		default:
			return View{}, corrupt("unknown block kind %d", kind)
		}
		seen += cnt
		if seen > card {
			return View{}, corrupt("blocks carry %d ids, header says %d", seen, card)
		}
	}
	if seen != card {
		return View{}, corrupt("blocks carry %d ids, header says %d", seen, card)
	}
	if card == 0 {
		return View{}, nil
	}
	return View{enc: enc, card: card}, nil
}

// Len returns the extent cardinality. Compressed blocks carry it in their
// header, so this is O(1) for every representation — which is what lets
// the planner's selectivity estimates stay free under compression.
func (v View) Len() int { return v.card }

// Bytes returns the resident size of the representation in bytes.
func (v View) Bytes() int {
	if v.enc != nil {
		return len(v.enc)
	}
	return 4 * len(v.dense)
}

// IsCompressed reports whether the View holds the block encoding (false
// for dense extents, including dense fallbacks under the Compressed
// codec).
func (v View) IsCompressed() bool { return v.enc != nil }

// Encoded returns the underlying block encoding (nil for dense views).
// Read-only: the bytes are shared with the snapshot.
func (v View) Encoded() []byte { return v.enc }

// AppendTo appends the extent's ids to dst in ascending order and returns
// the extended slice — the materialization primitive. Compressed views
// decode streaming, straight into dst; with a warm dst nothing allocates.
func (v View) AppendTo(dst []graph.NodeID) []graph.NodeID {
	if v.enc == nil {
		return append(dst, v.dense...)
	}
	var cur Cursor
	cur.Reset(v)
	for {
		id, ok := cur.Next()
		if !ok {
			return dst
		}
		dst = append(dst, id)
	}
}

// Each calls fn for every id in the extent, in ascending order.
func (v View) Each(fn func(graph.NodeID)) {
	if v.enc == nil {
		for _, id := range v.dense {
			fn(id)
		}
		return
	}
	var cur Cursor
	cur.Reset(v)
	for {
		id, ok := cur.Next()
		if !ok {
			return
		}
		fn(id)
	}
}

// Contains reports whether id is in the extent: binary search on dense
// views, block skip plus an O(1) bitmap test or a bounded array scan on
// compressed ones.
func (v View) Contains(id graph.NodeID) bool {
	if id < 0 {
		return false
	}
	if v.enc == nil {
		_, ok := slices.BinarySearch(v.dense, id)
		return ok
	}
	want := uint32(id) >> 16
	low := uint32(id) & 0xFFFF
	_, pos := binary.Uvarint(v.enc) // card, validated at FromEncoded
	hi := uint32(0)
	first := true
	for pos < len(v.enc) {
		delta, n := binary.Uvarint(v.enc[pos:])
		pos += n
		if first {
			hi = uint32(delta)
			first = false
		} else {
			hi += uint32(delta)
		}
		kind := v.enc[pos]
		pos++
		cnt64, n := binary.Uvarint(v.enc[pos:])
		pos += n
		if kind == 0 {
			body64, n := binary.Uvarint(v.enc[pos:])
			pos += n
			if hi == want {
				body := v.enc[pos : pos+int(body64)]
				first64, n := binary.Uvarint(body)
				cur := uint32(first64)
				if cur == low {
					return true
				}
				if cur > low {
					return false
				}
				var gr gapReader
				gr.init(body, n, int(cnt64)-1)
				for gr.rem > 0 {
					cur += gr.next() + 1
					if cur == low {
						return true
					}
					if cur > low {
						return false
					}
				}
				return false
			}
			pos += int(body64)
		} else {
			if hi == want {
				return v.enc[pos+int(low>>3)]&(1<<(low&7)) != 0
			}
			pos += bitmapBytes
		}
		if hi >= want {
			return false
		}
	}
	return false
}
