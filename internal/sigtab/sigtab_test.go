package sigtab

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestInternDenseOrder(t *testing.T) {
	var tab Table
	sigs := [][]int32{{1, 2, 3}, {1, 2}, {}, {1, 2, 4}, {7}}
	for want, sig := range sigs {
		id, added := tab.Intern(sig)
		if !added || id != int32(want) {
			t.Fatalf("Intern(%v) = (%d, %v), want (%d, true)", sig, id, added, want)
		}
	}
	for want, sig := range sigs {
		id, added := tab.Intern(sig)
		if added || id != int32(want) {
			t.Fatalf("re-Intern(%v) = (%d, %v), want (%d, false)", sig, id, added, want)
		}
		if lk := tab.Lookup(sig); lk != int32(want) {
			t.Fatalf("Lookup(%v) = %d, want %d", sig, lk, want)
		}
	}
	if tab.Len() != len(sigs) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(sigs))
	}
	if tab.Lookup([]int32{9, 9}) != -1 {
		t.Fatal("Lookup of absent signature must be -1")
	}
	for i, sig := range sigs {
		got := tab.Sig(int32(i))
		if len(got) != len(sig) {
			t.Fatalf("Sig(%d) = %v, want %v", i, got, sig)
		}
		for j := range sig {
			if got[j] != sig[j] {
				t.Fatalf("Sig(%d) = %v, want %v", i, got, sig)
			}
		}
	}
}

// TestAgainstMap interns random signatures alongside a string-keyed
// reference map across growth boundaries.
func TestAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab Table
	ref := map[string]int32{}
	buf := make([]int32, 0, 8)
	for step := 0; step < 20000; step++ {
		buf = buf[:0]
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			buf = append(buf, int32(rng.Intn(50)-10))
		}
		key := fmt.Sprint(buf)
		id, added := tab.Intern(buf)
		refID, seen := ref[key]
		if seen {
			if added || id != refID {
				t.Fatalf("step %d: Intern(%v) = (%d,%v), want (%d,false)", step, buf, id, added, refID)
			}
		} else {
			if !added || id != int32(len(ref)) {
				t.Fatalf("step %d: Intern(%v) = (%d,%v), want (%d,true)", step, buf, id, added, len(ref))
			}
			ref[key] = id
		}
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
}

func TestResetKeepsCapacityAndWorks(t *testing.T) {
	var tab Table
	for i := int32(0); i < 100; i++ {
		tab.Intern([]int32{i, i * 3})
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatal("Reset did not empty the table")
	}
	id, added := tab.Intern([]int32{5, 15})
	if !added || id != 0 {
		t.Fatalf("post-Reset Intern = (%d, %v), want (0, true)", id, added)
	}
}

// TestResetAfterGrowth resets a table grown to at least 2¹⁶ slots, once
// with under a quarter of them in use (Reset clears only the used slots)
// and once with more (Reset clears them all): the table must come back
// empty, miss every old signature and restart ids at 0.
func TestResetAfterGrowth(t *testing.T) {
	for _, n := range []int{1000, 40000} {
		var tab Table
		tab.Grow(1 << 15)
		for i := 0; i < n; i++ {
			tab.Intern([]int32{int32(i), int32(i) * 7})
		}
		if len(tab.slots) < 1<<16 {
			t.Fatalf("n=%d: table has %d slots, want ≥ 2¹⁶", n, len(tab.slots))
		}
		tab.Reset()
		if tab.Len() != 0 {
			t.Fatalf("n=%d: Len after Reset = %d, want 0", n, tab.Len())
		}
		for i, s := range tab.slots {
			if s != 0 {
				t.Fatalf("n=%d: slot %d still holds %d after Reset", n, i, s)
			}
		}
		for i := 0; i < n; i++ {
			if id := tab.Lookup([]int32{int32(i), int32(i) * 7}); id != -1 {
				t.Fatalf("n=%d: Lookup of old signature %d = %d after Reset, want -1", n, i, id)
			}
		}
		for want := int32(0); want < 3; want++ {
			if id, added := tab.Intern([]int32{-1, want}); !added || id != want {
				t.Fatalf("n=%d: post-Reset Intern = (%d, %v), want (%d, true)", n, id, added, want)
			}
		}
	}
}

func TestGrowAvoidsRehash(t *testing.T) {
	var tab Table
	tab.Grow(1000)
	slots := len(tab.slots)
	for i := int32(0); i < 1000; i++ {
		tab.Intern([]int32{i})
	}
	if len(tab.slots) != slots {
		t.Fatalf("table rehashed despite Grow: %d -> %d slots", slots, len(tab.slots))
	}
}

func TestInternNoAllocSteadyState(t *testing.T) {
	var tab Table
	tab.Grow(64)
	sig := []int32{1, 2, 3, 4}
	for i := int32(0); i < 32; i++ {
		tab.Intern([]int32{i, i + 1})
	}
	tab.Intern(sig)
	allocs := testing.AllocsPerRun(100, func() {
		tab.Intern(sig)
		tab.Lookup(sig)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Intern/Lookup allocated %.1f times per run", allocs)
	}
}

// BenchmarkResetAfterGrowth is one small round — Reset, then 20 signatures
// — on a table that an earlier large round grew to 2²⁰ slots: the shape of
// a per-block refinement round, or of a small subgraph's construction
// after a large graph's.
func BenchmarkResetAfterGrowth(b *testing.B) {
	var tab Table
	tab.Grow(1 << 19)
	sig := make([]int32, 2)
	for i := 0; i < b.N; i++ {
		tab.Reset()
		for j := int32(0); j < 20; j++ {
			sig[0], sig[1] = j, j%3
			tab.Intern(sig)
		}
	}
}
