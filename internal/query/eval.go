package query

import (
	"slices"

	"structix/internal/graph"
)

// EvalGraph evaluates the expression by direct traversal of the data graph
// and returns the matched dnodes, sorted. Predicates are honored.
func EvalGraph(p *Path, g Source) []graph.NodeID {
	if g.Root() == graph.InvalidNode {
		return nil
	}
	out := run(p, g, []graph.NodeID{g.Root()})
	sortNodes(out)
	return out
}

// NeedsValidation reports whether an A(k) result for p can contain false
// positives: the expression is guaranteed precise only if it is anchored,
// has no descendant steps, and is at most k steps long (§3).
func NeedsValidation(p *Path, k int) bool {
	if len(p.steps) > k {
		return true
	}
	for _, s := range p.steps {
		if s.Descendant {
			return true
		}
	}
	return false
}

// validator performs per-candidate backward matching with memoization of
// positive results (negative results are not cached: with cycles a "false"
// discovered during an in-progress search is only valid for that search).
type validator struct {
	p *Path
	g Source
	// trueMemo[state] caches proven matches; state packs (node, stepIdx).
	trueMemo map[int64]bool
}

func newValidator(p *Path, g Source) *validator {
	return &validator{p: p, g: g, trueMemo: make(map[int64]bool)}
}

func (va *validator) matches(v graph.NodeID) bool {
	return va.search(v, len(va.p.steps)-1, make(map[int64]bool))
}

// state packs (node, stepIdx) into one key: the node id in the high 32
// bits, the step index in the low 32, so a step index never spills into
// the node id (a path of 2^32 steps could not be held in memory).
func state(v graph.NodeID, i int) int64 { return int64(v)<<32 | int64(uint32(i)) }

// search reports whether v can be the node matched by step i with steps
// 0..i−1 matched along some path from the root above it.
func (va *validator) search(v graph.NodeID, i int, inProgress map[int64]bool) bool {
	st := va.p.steps[i]
	if st.Label != "*" && va.g.LabelName(v) != st.Label {
		return false
	}
	s := state(v, i)
	if va.trueMemo[s] {
		return true
	}
	if inProgress[s] {
		return false
	}
	inProgress[s] = true
	defer delete(inProgress, s)
	ok := false
	if st.Descendant {
		// Any proper ancestor chain leading to a step-(i−1) match (or to
		// the root when i == 0).
		ok = va.ancestorSearch(v, i-1)
	} else {
		va.g.EachPred(v, func(p graph.NodeID, _ graph.EdgeKind) {
			if ok {
				return
			}
			if i == 0 {
				ok = p == va.g.Root()
			} else {
				ok = va.search(p, i-1, inProgress)
			}
		})
	}
	if ok {
		va.trueMemo[s] = true
	}
	return ok
}

// ancestorSearch reports whether some proper ancestor of v matches step
// prev (or is the root, when prev < 0). Testing is tracked separately from
// expansion so that v itself is tested when a cycle makes it its own proper
// ancestor.
func (va *validator) ancestorSearch(v graph.NodeID, prev int) bool {
	tested := make(map[graph.NodeID]bool)
	expanded := map[graph.NodeID]bool{v: true}
	stack := []graph.NodeID{v}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		found := false
		va.g.EachPred(cur, func(p graph.NodeID, _ graph.EdgeKind) {
			if found {
				return
			}
			if !tested[p] {
				tested[p] = true
				if prev < 0 {
					found = p == va.g.Root()
				} else {
					found = va.search(p, prev, make(map[int64]bool))
				}
				if found {
					return
				}
			}
			if !expanded[p] {
				expanded[p] = true
				stack = append(stack, p)
			}
		})
		if found {
			return true
		}
	}
	return false
}

func sortNodes(s []graph.NodeID) {
	slices.Sort(s)
}
