package extent

import (
	"math/rand"
	"slices"
	"testing"

	"structix/internal/graph"
)

// randomSet builds a sorted unique id set with mixed shapes: sparse
// uniform tails, dense runs (to force bitmap blocks), and strided
// sequences (the XMark-like extent shape the delta coder targets).
func randomSet(rng *rand.Rand, maxLen int) []graph.NodeID {
	set := map[graph.NodeID]bool{}
	n := rng.Intn(maxLen + 1)
	for len(set) < n {
		switch rng.Intn(3) {
		case 0: // uniform sparse
			set[graph.NodeID(rng.Intn(1<<20))] = true
		case 1: // dense run
			base := graph.NodeID(rng.Intn(1 << 18))
			run := rng.Intn(512) + 1
			for i := 0; i < run && len(set) < n; i++ {
				set[base+graph.NodeID(i)] = true
			}
		default: // strided
			base := graph.NodeID(rng.Intn(1 << 18))
			stride := graph.NodeID(rng.Intn(64) + 1)
			for i := 0; i < 64 && len(set) < n; i++ {
				set[base+graph.NodeID(i)*stride] = true
			}
		}
	}
	ids := make([]graph.NodeID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// denseBlock returns ids 0..n-1 offset by base — enough to exceed the
// array cutoff and force a bitmap block.
func denseBlock(base graph.NodeID, n int) []graph.NodeID {
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = base + graph.NodeID(i)
	}
	return ids
}

func viewIDs(t *testing.T, v View) []graph.NodeID {
	t.Helper()
	got := v.AppendTo(nil)
	if len(got) != v.Len() {
		t.Fatalf("AppendTo produced %d ids, Len says %d", len(got), v.Len())
	}
	var each []graph.NodeID
	v.Each(func(id graph.NodeID) { each = append(each, id) })
	if !slices.Equal(got, each) {
		t.Fatalf("Each and AppendTo disagree")
	}
	return got
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 300; iter++ {
		ids := randomSet(rng, 6000)
		orig := slices.Clone(ids)
		for _, codec := range []Codec{Dense, Compressed} {
			v := FromSorted(slices.Clone(ids), codec)
			got := viewIDs(t, v)
			if !slices.Equal(got, orig) {
				t.Fatalf("iter %d codec %v: round trip mismatch (%d ids in, %d out)",
					iter, codec, len(orig), len(got))
			}
			if enc := v.Encoded(); enc != nil {
				v2, err := FromEncoded(enc)
				if err != nil {
					t.Fatalf("iter %d: FromEncoded rejected own encoding: %v", iter, err)
				}
				if !slices.Equal(viewIDs(t, v2), orig) {
					t.Fatalf("iter %d: FromEncoded round trip mismatch", iter)
				}
			}
		}
	}
}

func TestBitmapBlockRoundTrip(t *testing.T) {
	// A run longer than the cutoff inside one 65536-range must become a
	// bitmap block and round-trip exactly; spanning a block boundary must
	// split into two blocks.
	for _, base := range []graph.NodeID{0, 7, 65536 - 3000, 3 << 16} {
		ids := denseBlock(base, 20000)
		v := FromSorted(slices.Clone(ids), Compressed)
		if !v.IsCompressed() {
			t.Fatalf("base %d: dense run did not compress", base)
		}
		if got := viewIDs(t, v); !slices.Equal(got, ids) {
			t.Fatalf("base %d: bitmap round trip mismatch", base)
		}
		if v.Bytes() >= 4*len(ids) {
			t.Fatalf("base %d: bitmap encoding (%dB) not smaller than dense (%dB)",
				base, v.Bytes(), 4*len(ids))
		}
	}
}

func TestDenseFallback(t *testing.T) {
	// Pathologically sparse ids (huge deltas) must stay dense under the
	// Compressed codec: the per-extent density choice.
	ids := []graph.NodeID{0, 1 << 26, 1 << 27, 1<<27 + 1<<26, 1 << 30}
	v := FromSorted(slices.Clone(ids), Compressed)
	if v.IsCompressed() {
		t.Fatalf("sparse extent compressed to %dB, dense is %dB", v.Bytes(), 4*len(ids))
	}
	if got := viewIDs(t, v); !slices.Equal(got, ids) {
		t.Fatalf("dense fallback round trip mismatch")
	}
}

func TestEmptyAndZeroView(t *testing.T) {
	var zero View
	if zero.Len() != 0 || zero.Bytes() != 0 || zero.IsCompressed() {
		t.Fatalf("zero View not empty: %+v", zero)
	}
	if got := zero.AppendTo(nil); len(got) != 0 {
		t.Fatalf("zero View yields ids: %v", got)
	}
	if v := FromSorted(nil, Compressed); v.Len() != 0 {
		t.Fatalf("FromSorted(nil) not empty")
	}
}

func TestContains(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 50; iter++ {
		ids := randomSet(rng, 3000)
		if iter%5 == 0 {
			ids = append(denseBlock(100, 20000), ids...)
			slices.Sort(ids)
			ids = slices.Compact(ids)
		}
		in := map[graph.NodeID]bool{}
		for _, id := range ids {
			in[id] = true
		}
		for _, codec := range []Codec{Dense, Compressed} {
			v := FromSorted(slices.Clone(ids), codec)
			for _, id := range ids {
				if !v.Contains(id) {
					t.Fatalf("iter %d codec %v: Contains(%d) = false for member", iter, codec, id)
				}
			}
			for probe := 0; probe < 200; probe++ {
				id := graph.NodeID(rng.Intn(1 << 21))
				if v.Contains(id) != in[id] {
					t.Fatalf("iter %d codec %v: Contains(%d) = %v, want %v",
						iter, codec, id, v.Contains(id), in[id])
				}
			}
			if v.Contains(-1) {
				t.Fatalf("Contains(-1) = true")
			}
		}
	}
}

func TestSeek(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 80; iter++ {
		ids := randomSet(rng, 3000)
		if iter%4 == 0 {
			ids = append(ids, denseBlock(1<<17, 20000)...)
			slices.Sort(ids)
			ids = slices.Compact(ids)
		}
		for _, codec := range []Codec{Dense, Compressed} {
			v := FromSorted(slices.Clone(ids), codec)
			var c Cursor
			c.Reset(v)
			// Forward-only seeks to ascending random targets must land on
			// the first id ≥ target every time.
			target := graph.NodeID(0)
			for probe := 0; probe < 40; probe++ {
				target += graph.NodeID(rng.Intn(1 << 16))
				idx, _ := slices.BinarySearch(ids, target)
				got, ok := c.Seek(target)
				if idx >= len(ids) {
					if ok {
						t.Fatalf("iter %d codec %v: Seek(%d) = %d, want exhausted", iter, codec, target, got)
					}
					break
				}
				if !ok || got != ids[idx] {
					t.Fatalf("iter %d codec %v: Seek(%d) = %d,%v, want %d",
						iter, codec, target, got, ok, ids[idx])
				}
				// The cursor must continue in order from the seek point.
				if idx+1 < len(ids) {
					next, ok := c.Next()
					if !ok || next != ids[idx+1] {
						t.Fatalf("iter %d codec %v: Next after Seek(%d) = %d,%v, want %d",
							iter, codec, target, next, ok, ids[idx+1])
					}
					target = next
				} else {
					target = got
				}
			}
		}
	}
}

func refUnion(sets ...[]graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, s := range sets {
		out = append(out, s...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func refIntersect(a, b []graph.NodeID) []graph.NodeID {
	in := map[graph.NodeID]bool{}
	for _, id := range a {
		in[id] = true
	}
	var out []graph.NodeID
	for _, id := range b {
		if in[id] {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func TestUnionIntoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var kw KWay
	var dst []graph.NodeID
	for iter := 0; iter < 120; iter++ {
		k := rng.Intn(6) + 1
		sets := make([][]graph.NodeID, k)
		views := kw.Views(k)
		for i := range sets {
			sets[i] = randomSet(rng, 2000)
			// Mix codecs freely inside one union.
			codec := Dense
			if rng.Intn(2) == 0 {
				codec = Compressed
			}
			views[i] = FromSorted(slices.Clone(sets[i]), codec)
		}
		want := refUnion(sets...)
		dst = UnionInto(dst[:0], &kw, views)
		if !slices.Equal(dst, want) {
			t.Fatalf("iter %d: union of %d views mismatch (%d got, %d want)",
				iter, k, len(dst), len(want))
		}
	}
}

func TestIntersectIntoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var kw KWay
	var dst []graph.NodeID
	for iter := 0; iter < 120; iter++ {
		a := randomSet(rng, 2500)
		b := randomSet(rng, 2500)
		if iter%3 == 0 { // force overlap
			b = append(b, a[:len(a)/2]...)
			slices.Sort(b)
			b = slices.Compact(b)
		}
		if iter%7 == 0 { // big bitmap side
			b = append(b, denseBlock(0, 20000)...)
			slices.Sort(b)
			b = slices.Compact(b)
		}
		want := refIntersect(a, b)
		for _, ca := range []Codec{Dense, Compressed} {
			for _, cb := range []Codec{Dense, Compressed} {
				va := FromSorted(slices.Clone(a), ca)
				vb := FromSorted(slices.Clone(b), cb)
				dst = IntersectInto(dst[:0], &kw, va, vb)
				if !slices.Equal(dst, want) {
					t.Fatalf("iter %d codecs %v∩%v: mismatch (%d got, %d want)",
						iter, ca, cb, len(dst), len(want))
				}
			}
		}
	}
}

func TestFromEncodedRejectsGarbage(t *testing.T) {
	valid := FromSorted(denseBlock(10, 20000), Compressed).Encoded()
	if valid == nil {
		t.Fatal("expected a compressed encoding")
	}
	// Every truncation of a valid encoding must be rejected, never panic.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := FromEncoded(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	cases := map[string][]byte{
		"empty with trailing":   {0, 1},
		"huge cardinality":      {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		"missing blocks":        {5},
		"unknown kind":          {1, 0, 7, 1},
		"non-minimal gap width": {2, 0, 0, 2, 3, 3, 1, 0},
		"nonzero gap padding":   {2, 0, 0, 2, 3, 3, 1, 2},
		"gap width over 16":     {2, 0, 0, 2, 2, 3, 17},
		"first low overflow":    {1, 0, 0, 1, 3, 0x80, 0x80, 0x04},
		"gap low overflow":      {2, 0, 0, 2, 4, 0xFF, 0xFF, 0x03, 0},
		"trailing body bytes":   {2, 0, 0, 2, 3, 3, 0, 0},
		"cardinality mismatch":  {3, 0, 0, 2, 2, 3, 0},
		"bitmap card too small": {1, 0, 1, 1},
	}
	for name, enc := range cases {
		if _, err := FromEncoded(enc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Flipping a byte in a bitmap body breaks the popcount check.
	garbled := slices.Clone(valid)
	garbled[len(garbled)-1] ^= 0xFF
	if _, err := FromEncoded(garbled); err == nil {
		t.Errorf("garbled bitmap tail accepted")
	}
}

// TestKernelAllocs gates the 0-alloc contract of the compressed kernels:
// with a warm KWay and a presized destination, union and intersect over
// compressed blocks must not allocate — that is what keeps the compiled
// Eval paths allocation-free under the Compressed codec.
func TestKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	k := 8
	views := make([]View, k)
	total := 0
	for i := range views {
		ids := randomSet(rng, 3000)
		if i%2 == 0 {
			ids = append(ids, denseBlock(graph.NodeID(i)<<16, 20000)...)
			slices.Sort(ids)
			ids = slices.Compact(ids)
		}
		views[i] = FromSorted(ids, Compressed)
		total += len(ids)
	}
	var kw KWay
	dst := make([]graph.NodeID, 0, total)
	vs := kw.Views(k)
	copy(vs, views)
	dst = UnionInto(dst[:0], &kw, vs) // warm the scratch
	if allocs := testing.AllocsPerRun(20, func() {
		dst = UnionInto(dst[:0], &kw, vs)
	}); allocs != 0 {
		t.Errorf("warm UnionInto allocates %.1f/op, want 0", allocs)
	}
	dst = IntersectInto(dst[:0], &kw, views[0], views[1])
	if allocs := testing.AllocsPerRun(20, func() {
		dst = IntersectInto(dst[:0], &kw, views[0], views[1])
	}); allocs != 0 {
		t.Errorf("warm IntersectInto allocates %.1f/op, want 0", allocs)
	}
	// The all-dense union fast path shares the contract.
	dense := make([]View, k)
	for i := range dense {
		dense[i] = FromSorted(viewIDs(t, views[i]), Dense)
	}
	copy(vs, dense)
	dst = UnionInto(dst[:0], &kw, vs)
	if allocs := testing.AllocsPerRun(20, func() {
		dst = UnionInto(dst[:0], &kw, vs)
	}); allocs != 0 {
		t.Errorf("warm dense UnionInto allocates %.1f/op, want 0", allocs)
	}
}

func TestCodecString(t *testing.T) {
	for c, want := range map[Codec]string{Dense: "dense", Compressed: "compressed", Codec(7): "codec(7)"} {
		if got := c.String(); got != want {
			t.Errorf("Codec(%d).String() = %q, want %q", uint8(c), got, want)
		}
	}
}

func TestFromSortedPanicsOnBadInput(t *testing.T) {
	for name, ids := range map[string][]graph.NodeID{
		"unsorted":  {3, 1},
		"duplicate": {1, 1},
		"negative":  {-1, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FromSorted did not panic", name)
				}
			}()
			FromSorted(ids, Dense)
		}()
	}
}
