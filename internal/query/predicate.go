package query

import (
	"fmt"
	"strings"

	"structix/internal/graph"
)

// Predicate is a step qualifier in brackets: [rel] asserts the existence
// of a match for the relative path rel below the step's node, and
// [rel='lit'] additionally requires some matched node's value to equal the
// literal. Attribute tests use the attribute-node convention of xmlload:
// [@id='x'] tests the child node labeled "@id".
//
// Predicates filter on *outgoing* structure, which backward bisimulation
// does not preserve — so indexes evaluate the structural skeleton of an
// expression and predicates are checked per candidate against the data
// graph, exactly like the A(k) validation step.
type Predicate struct {
	Rel      *Path  // relative path below the candidate node
	Value    string // literal to compare against
	HasValue bool   // whether a ='lit' comparison is present
}

func (pr *Predicate) String() string {
	if pr.HasValue {
		return fmt.Sprintf("[%s='%s']", strings.TrimPrefix(pr.Rel.String(), "/"), pr.Value)
	}
	return fmt.Sprintf("[%s]", strings.TrimPrefix(pr.Rel.String(), "/"))
}

// holds reports whether the predicate holds at node v of g.
func (pr *Predicate) holds(g Source, v graph.NodeID) bool {
	matches := run(pr.Rel, g, []graph.NodeID{v})
	if !pr.HasValue {
		return len(matches) > 0
	}
	for _, w := range matches {
		if g.Value(w) == pr.Value {
			return true
		}
	}
	return false
}

// HasPredicates reports whether any step carries a predicate.
func (p *Path) HasPredicates() bool {
	for _, s := range p.steps {
		if len(s.Predicates) > 0 {
			return true
		}
	}
	return false
}

// Skeleton returns the expression with all predicates stripped — the part
// a structural index can evaluate.
func (p *Path) Skeleton() *Path {
	steps := make([]Step, len(p.steps))
	for i, s := range p.steps {
		steps[i] = Step{Label: s.Label, Descendant: s.Descendant}
	}
	return &Path{steps: steps}
}

// stepHolds checks every predicate of the step at node v.
func stepHolds(st Step, g Source, v graph.NodeID) bool {
	for _, pr := range st.Predicates {
		if !pr.holds(g, v) {
			return false
		}
	}
	return true
}

// predicatesOnlyOnFinalStep reports whether every predicate sits on the
// last step — the common case, where index candidates can be filtered
// per-node without re-deriving paths.
func (p *Path) predicatesOnlyOnFinalStep() bool {
	for i, s := range p.steps {
		if len(s.Predicates) > 0 && i != len(p.steps)-1 {
			return false
		}
	}
	return true
}

// filterByAllPredicates reduces skeleton candidates to the exact result.
// When predicates appear only on the final step each candidate is tested
// locally; predicates on earlier steps require re-deriving which root
// paths support each candidate, so the exact predicate-aware evaluation is
// intersected instead.
func filterByAllPredicates(p *Path, g Source, candidates []graph.NodeID) []graph.NodeID {
	if len(candidates) == 0 {
		return candidates
	}
	if p.predicatesOnlyOnFinalStep() {
		last := p.steps[len(p.steps)-1]
		out := candidates[:0]
		for _, v := range candidates {
			if stepHolds(last, g, v) {
				out = append(out, v)
			}
		}
		return out
	}
	exact := EvalGraph(p, g)
	inExact := make(map[graph.NodeID]bool, len(exact))
	for _, v := range exact {
		inExact[v] = true
	}
	out := candidates[:0]
	for _, v := range candidates {
		if inExact[v] {
			out = append(out, v)
		}
	}
	return out
}
