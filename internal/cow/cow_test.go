package cow

import "testing"

// shared counts the pages a and b hold in common.
func shared[T any](a, b *Array[T]) int {
	n := 0
	for i := 0; i < len(a.spine) && i < len(b.spine); i++ {
		if a.spine[i] == b.spine[i] {
			n++
		}
	}
	return n
}

func fill(n int) Array[int] {
	var empty Array[int]
	e := empty.Edit(n)
	for i := 0; i < n; i++ {
		*e.Slot(i) = i + 1
	}
	return e.Array()
}

func check(t *testing.T, a *Array[int], want func(i int) int) {
	t.Helper()
	for i := 0; i < a.Len(); i++ {
		if got := *a.At(i); got != want(i) {
			t.Fatalf("slot %d = %d, want %d", i, got, want(i))
		}
	}
}

func TestZeroAndFill(t *testing.T) {
	var empty Array[int]
	if empty.Len() != 0 {
		t.Fatalf("zero Array has %d slots", empty.Len())
	}
	for _, n := range []int{0, 1, PageSize - 1, PageSize, PageSize + 1, 5*PageSize + 7} {
		a := fill(n)
		if a.Len() != n {
			t.Fatalf("Len = %d, want %d", a.Len(), n)
		}
		if want := (n + PageSize - 1) / PageSize; len(a.spine) != want {
			t.Fatalf("n=%d: %d pages, want %d", n, len(a.spine), want)
		}
		check(t, &a, func(i int) int { return i + 1 })
	}
}

// TestGrow extends an array inside its last page, onto a page boundary
// and across several pages: old slots keep their values and stay shared,
// new slots start zero even where nothing writes them.
func TestGrow(t *testing.T) {
	for _, tc := range []struct{ from, to int }{
		{10, 20}, {10, PageSize}, {PageSize, PageSize + 1}, {PageSize - 1, 4 * PageSize}, {0, 3},
	} {
		a := fill(tc.from)
		e := a.Edit(tc.to)
		b := e.Array()
		if b.Len() != tc.to || a.Len() != tc.from {
			t.Fatalf("%v: lengths %d -> %d", tc, a.Len(), b.Len())
		}
		check(t, &b, func(i int) int {
			if i < tc.from {
				return i + 1
			}
			return 0
		})
		if got, want := shared(&a, &b), len(a.spine); got != want {
			t.Fatalf("%v: %d of %d old pages shared", tc, got, want)
		}
	}
}

// TestWriteIntoGrownTail writes a new slot that lands in the
// predecessor's last page: that page is copied, the predecessor's copy
// keeps its zero tail.
func TestWriteIntoGrownTail(t *testing.T) {
	a := fill(10)
	e := a.Edit(12)
	*e.Slot(11) = 99
	b := e.Array()
	if *b.At(11) != 99 || *b.At(10) != 0 || *b.At(9) != 10 {
		t.Fatalf("grown tail: %d %d %d", *b.At(9), *b.At(10), *b.At(11))
	}
	if shared(&a, &b) != 0 {
		t.Fatal("written page still shared")
	}
	if got := a.spine[0][11]; got != 0 {
		t.Fatalf("predecessor's page saw the write: %d", got)
	}
}

// TestSlotsGoDead zeroes every slot of an array through an editor: the
// successor reads all zero, the predecessor is untouched, no page shared.
func TestSlotsGoDead(t *testing.T) {
	n := 3*PageSize + 5
	a := fill(n)
	e := a.Edit(n)
	for i := 0; i < n; i++ {
		*e.Slot(i) = 0
	}
	b := e.Array()
	check(t, &b, func(int) int { return 0 })
	check(t, &a, func(i int) int { return i + 1 })
	if shared(&a, &b) != 0 {
		t.Fatal("a fully rewritten array shares pages")
	}
}

// TestPatchOfPatchSharing derives b from a and c from b with writes in
// different pages, and counts who shares what: a page is copied once per
// generation that writes it, however many writes land in it.
func TestPatchOfPatchSharing(t *testing.T) {
	const pages = 8
	a := fill(pages * PageSize)

	e := a.Edit(a.Len())
	*e.Slot(1*PageSize + 3) = -1
	*e.Slot(1*PageSize + 4) = -2 // same page: no second copy
	p := e.next.spine[1]
	*e.Slot(1*PageSize + 5) = -3
	if e.next.spine[1] != p {
		t.Fatal("second write into an owned page copied it again")
	}
	*e.Slot(5 * PageSize) = -4
	b := e.Array()

	e = b.Edit(b.Len())
	*e.Slot(1*PageSize + 3) = -5 // b's private page, c must still copy it
	*e.Slot(7*PageSize + 63) = -6
	c := e.Array()

	if got := shared(&a, &b); got != pages-2 {
		t.Fatalf("a,b share %d pages, want %d", got, pages-2)
	}
	if got := shared(&b, &c); got != pages-2 {
		t.Fatalf("b,c share %d pages, want %d", got, pages-2)
	}
	if got := shared(&a, &c); got != pages-3 {
		t.Fatalf("a,c share %d pages, want %d", got, pages-3)
	}
	check(t, &a, func(i int) int { return i + 1 })
	if *b.At(1*PageSize + 3) != -1 || *c.At(1*PageSize + 3) != -5 || *c.At(1*PageSize + 4) != -2 {
		t.Fatalf("generations mixed: b=%d c=%d,%d", *b.At(1*PageSize + 3), *c.At(1*PageSize + 3), *c.At(1*PageSize + 4))
	}
	if *c.At(5 * PageSize) != -4 || *b.At(7*PageSize + 63) != 8*PageSize {
		t.Fatal("untouched generation lost or gained a write")
	}
}

// TestEditorGrowAndRead grows an editor one slot at a time across page
// boundaries, the way the live graph adds nodes, reading each slot back
// through the editor: the predecessor keeps its length and values, its
// untouched first page stays shared, and the partly filled page the
// growth writes into is copied.
func TestEditorGrowAndRead(t *testing.T) {
	a := fill(PageSize + 3)
	e := a.Edit(a.Len())
	for i := a.Len(); i < 4*PageSize+5; i++ {
		e.Grow(i + 1)
		if e.Len() != i+1 || *e.At(i) != 0 {
			t.Fatalf("slot %d: Len %d, fresh value %d", i, e.Len(), *e.At(i))
		}
		*e.Slot(i) = -i
		if *e.At(i) != -i || *e.At(i - 1) == 0 {
			t.Fatalf("slot %d reads %d after its write, %d before it", i, *e.At(i), *e.At(i - 1))
		}
	}
	b := e.Array()
	check(t, &a, func(i int) int { return i + 1 })
	check(t, &b, func(i int) int {
		if i < PageSize+3 {
			return i + 1
		}
		return -i
	})
	if a.Len() != PageSize+3 || shared(&a, &b) != 1 || a.spine[0] != b.spine[0] {
		t.Fatalf("predecessor: %d slots, %d pages shared", a.Len(), shared(&a, &b))
	}
}

func TestEditCannotShrink(t *testing.T) {
	a := fill(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Edit(n < Len) did not panic")
		}
	}()
	a.Edit(9)
}
