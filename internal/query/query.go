// Package query evaluates simple path expressions — the workload
// structural indexes exist to accelerate (§1, §3) — over a data graph
// directly, or over an immutable snapshot of a 1-index or an A(k)-index,
// with the validation step for paths longer than k.
//
// The expression language is the label-path core of XPath [4]:
//
//	/site/people/person/name     child steps from the root
//	//person/name                descendant step (any depth ≥ 1)
//	/site//item/*                wildcard label
//
// Both object-subobject and IDREF edges are traversed, following the
// graph data model of §3.
//
// Evaluating on an index snapshot compiles the expression (Compile) and
// runs the compiled automaton over the (much smaller) index graph — the
// one code path that walks a snapshot — and returns the union of the
// matched inodes' extents. Any structural index built by
// extent-partitioning is *safe* — the result is a superset of the true
// answer; the 1-index is also *precise* for these expressions, while the
// A(k)-index can return false positives for expressions longer than k
// (Compiled.Candidates shows them), which Compiled.Eval removes by
// re-checking candidates against the data graph. The step interpreter
// walks only data graphs: EvalGraph, the reference the compiled path is
// tested against, and predicate checks.
package query

import (
	"fmt"
	"strings"

	"structix/internal/graph"
)

// Step is one location step of a path expression.
type Step struct {
	Label      string       // element label, or "*" for any
	Descendant bool         // true if preceded by //: any depth ≥ 1
	Predicates []*Predicate // bracketed qualifiers, e.g. [name='Alice']
}

// Path is a parsed path expression.
type Path struct {
	steps []Step
}

// Steps returns the parsed steps.
func (p *Path) Steps() []Step { return p.steps }

// Len returns the number of location steps.
func (p *Path) Len() int { return len(p.steps) }

// String reassembles the expression.
func (p *Path) String() string {
	var b strings.Builder
	for _, s := range p.steps {
		if s.Descendant {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(s.Label)
		for _, pr := range s.Predicates {
			b.WriteString(pr.String())
		}
	}
	return b.String()
}

// Parse parses a path expression. A leading "/" anchors at the root (and is
// implied if absent); "//" marks the following step as a descendant step;
// each step may carry bracketed predicates: [rel], [rel='literal'] or
// [rel="literal"], where rel is itself a path expression (evaluated
// relative to the step's node; nested predicates inside rel are not
// supported).
func Parse(expr string) (*Path, error) {
	s := strings.TrimSpace(expr)
	if s == "" {
		return nil, fmt.Errorf("query: empty expression")
	}
	var steps []Step
	i := 0
	if !strings.HasPrefix(s, "/") {
		s = "/" + s
	}
	for i < len(s) {
		desc := false
		if strings.HasPrefix(s[i:], "//") {
			desc = true
			i += 2
		} else if s[i] == '/' {
			i++
		} else {
			return nil, fmt.Errorf("query: expected '/' at offset %d in %q", i, expr)
		}
		j := i
		for j < len(s) && s[j] != '/' && s[j] != '[' {
			j++
		}
		label := s[i:j]
		if label == "" {
			return nil, fmt.Errorf("query: empty step at offset %d in %q", i, expr)
		}
		if strings.ContainsAny(label, " \t]='\"") {
			return nil, fmt.Errorf("query: invalid step %q", label)
		}
		step := Step{Label: label, Descendant: desc}
		i = j
		for i < len(s) && s[i] == '[' {
			end := strings.IndexByte(s[i:], ']')
			if end < 0 {
				return nil, fmt.Errorf("query: unclosed '[' at offset %d in %q", i, expr)
			}
			pred, err := parsePredicate(s[i+1 : i+end])
			if err != nil {
				return nil, fmt.Errorf("query: %v in %q", err, expr)
			}
			step.Predicates = append(step.Predicates, pred)
			i += end + 1
		}
		steps = append(steps, step)
	}
	return &Path{steps: steps}, nil
}

// parsePredicate parses the inside of a bracket: rel, rel='lit', rel="lit".
func parsePredicate(body string) (*Predicate, error) {
	body = strings.TrimSpace(body)
	if body == "" {
		return nil, fmt.Errorf("empty predicate")
	}
	relPart := body
	pred := &Predicate{}
	if eq := strings.IndexByte(body, '='); eq >= 0 {
		relPart = strings.TrimSpace(body[:eq])
		lit := strings.TrimSpace(body[eq+1:])
		if len(lit) < 2 || (lit[0] != '\'' && lit[0] != '"') || lit[len(lit)-1] != lit[0] {
			return nil, fmt.Errorf("predicate literal %q must be quoted", lit)
		}
		pred.Value = lit[1 : len(lit)-1]
		pred.HasValue = true
	}
	rel, err := Parse(relPart)
	if err != nil {
		return nil, fmt.Errorf("predicate path: %v", err)
	}
	if rel.HasPredicates() {
		return nil, fmt.Errorf("nested predicates are not supported")
	}
	pred.Rel = rel
	return pred, nil
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(expr string) *Path {
	p, err := Parse(expr)
	if err != nil {
		panic(err)
	}
	return p
}

// run is the step interpreter over a data graph: it evaluates p from the
// context nodes in frontier (which it consumes), one frontier set per
// step, checking each step's predicates on the nodes it admits, and
// returns the nodes matched by the final step, unordered. It is the
// reference EvalGraph and predicate checks use; index snapshots are
// walked by the compiled automaton instead.
func run(p *Path, g Source, frontier []graph.NodeID) []graph.NodeID {
	for _, st := range p.steps {
		if st.Descendant {
			frontier = closure(g, frontier)
		}
		next := make(map[graph.NodeID]bool)
		for _, n := range frontier {
			g.EachSucc(n, func(c graph.NodeID, _ graph.EdgeKind) {
				if (st.Label == "*" || g.LabelName(c) == st.Label) && !next[c] && stepHolds(st, g, c) {
					next[c] = true
				}
			})
		}
		frontier = frontier[:0]
		for n := range next {
			frontier = append(frontier, n)
		}
		if len(frontier) == 0 {
			return nil
		}
	}
	return frontier
}

// closure returns the set reachable from frontier by zero or more edges
// (the descendant gap: the following child step then supplies the ≥1
// requirement).
func closure(g Source, frontier []graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, len(frontier))
	stack := append([]graph.NodeID(nil), frontier...)
	for _, n := range frontier {
		seen[n] = true
	}
	out := append([]graph.NodeID(nil), frontier...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.EachSucc(n, func(c graph.NodeID, _ graph.EdgeKind) {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
				out = append(out, c)
			}
		})
	}
	return out
}
