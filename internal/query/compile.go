package query

import (
	"fmt"
	"math/bits"
)

// Query compilation: a Path is compiled once into a small program and then
// evaluated any number of times with a single product-construction walk
// over an index graph. The automaton shape follows the structural
// self-index literature: states mirror the location steps, descendant
// steps become self-loops over the whole alphabet, and wildcard labels
// accept every symbol.
//
// The alphabet is tiny — the distinct labels the expression names, plus
// one OTHER symbol standing for every label the expression does not
// mention — so transition tables stay a few cache lines. An automaton
// covers at most maxSteps steps, so its NFA state sets fit a uint64
// bitmask, which makes subset construction and the fallback on-the-fly
// evaluation branch-free bit arithmetic. A longer expression compiles to
// a chain of such automata: each link's walk starts from the slots the
// previous link accepted.

const (
	// maxSteps bounds the steps one automaton link covers so its NFA state
	// sets (one state per step plus the start state) fit a uint64.
	maxSteps = 63
	// maxDFAStates caps eager subset construction. The cap also keeps the
	// per-inode visited-state set a uint64 during evaluation; links whose
	// determinization would exceed it are evaluated with the NFA bitmask
	// fixpoint instead.
	maxDFAStates = 64
)

// symOther is the symbol for every label the expression does not name.
const symOther = 0

// Compiled is an immutable compiled form of a path expression. It is safe
// for concurrent use by any number of goroutines; all per-evaluation
// mutable state lives in a Scratch.
type Compiled struct {
	path *Path  // the full expression, predicates included
	skel *Path  // predicate-free skeleton the automata encode
	expr string // canonical form (path.String())

	// head is the first automaton link; nil for the empty path, whose
	// answer is the root itself.
	head *automaton
}

// automaton is one link of a compiled expression: at most maxSteps
// consecutive skeleton steps, started from the slots the previous link
// accepted (the root, for the first).
type automaton struct {
	// alphabet holds the distinct non-wildcard labels of the link's steps;
	// label alphabet[i] is symbol i+1, everything else is symOther.
	alphabet []string
	numSyms  int

	// nfa is the flattened transition table: nfa[q*numSyms+sym] is the
	// successor-state bitmask from state q on sym. State 0 is the start
	// state (before any step); state i+1 is "matched steps 0..i".
	nfa    []uint64
	accept uint64 // bitmask of the single accepting NFA state

	// dfa is the determinized table, nil when subset construction hit
	// maxDFAStates (possible for links dense in descendant steps).
	dfaNext   []int32 // dfaNext[st*numSyms+sym]; -1 is the dead state
	dfaAccept []bool

	next *automaton
}

// Compile builds the evaluation program for p, with each step's
// predicates in cost order (OrderPredicates), so one expression runs one
// program whichever entry point it came through. Every path compiles,
// including the empty one and paths of any length; the error result is
// always nil.
func Compile(p *Path) (*Compiled, error) { return MustCompile(p), nil }

// MustCompile is Compile without the (always nil) error result.
func MustCompile(p *Path) *Compiled {
	p = OrderPredicates(p)
	c := &Compiled{path: p, skel: p.Skeleton(), expr: p.String()}
	link := &c.head
	for steps := c.skel.steps; len(steps) > 0; {
		n := min(len(steps), maxSteps)
		*link = newAutomaton(steps[:n])
		link = &(*link).next
		steps = steps[n:]
	}
	return c
}

func newAutomaton(steps []Step) *automaton {
	a := &automaton{}
	for _, st := range steps {
		if st.Label != "*" && a.symOf(st.Label) == symOther {
			a.alphabet = append(a.alphabet, st.Label)
		}
	}
	a.numSyms = len(a.alphabet) + 1
	a.buildNFA(steps)
	a.buildDFA()
	return a
}

// Expr returns the canonical form of the compiled expression — the cache
// key two textually different but equivalent spellings share.
func (c *Compiled) Expr() string { return c.expr }

// Path returns the compiled expression, its predicates in cost order.
func (c *Compiled) Path() *Path { return c.path }

// States returns the NFA state count and the DFA state count, each summed
// over the links; a link whose determinization was declined, and which
// therefore walks the NFA fixpoint, adds no DFA states.
func (c *Compiled) States() (nfa, dfa int) {
	for a := c.head; a != nil; a = a.next {
		nfa += len(a.nfa) / a.numSyms
		dfa += len(a.dfaAccept)
	}
	return nfa, dfa
}

// symOf maps a label to its symbol. The alphabet is at most maxSteps
// entries, so a linear scan (with the length pre-check Go string
// comparison does anyway) beats hashing the label.
func (a *automaton) symOf(label string) uint8 {
	for i, name := range a.alphabet {
		if name == label {
			return uint8(i + 1)
		}
	}
	return symOther
}

func (a *automaton) buildNFA(steps []Step) {
	n := len(steps)
	a.nfa = make([]uint64, (n+1)*a.numSyms)
	a.accept = 1 << uint(n)
	for i, st := range steps {
		row := a.nfa[i*a.numSyms : (i+1)*a.numSyms]
		to := uint64(1) << uint(i+1)
		if st.Label == "*" {
			for sym := range row {
				row[sym] |= to
			}
		} else {
			row[a.symOf(st.Label)] |= to
		}
		if st.Descendant {
			// The descendant gap admits any number of intermediate edges
			// before the step's own child edge: a self-loop on every
			// symbol, exactly the closure() the interpreter runs.
			self := uint64(1) << uint(i)
			for sym := range row {
				row[sym] |= self
			}
		}
	}
}

// step advances an NFA state set by one symbol.
func (a *automaton) step(mask uint64, sym uint8) uint64 {
	var out uint64
	base := int(sym)
	for m := mask; m != 0; m &= m - 1 {
		q := bits.TrailingZeros64(m)
		out |= a.nfa[q*a.numSyms+base]
	}
	return out
}

// buildDFA runs eager subset construction from the start set {q0}. The
// construction aborts (leaving dfaNext nil) once it would exceed
// maxDFAStates; evaluation then falls back to the NFA fixpoint.
func (a *automaton) buildDFA() {
	idx := map[uint64]int32{1: 0}
	masks := []uint64{1}
	next := make([]int32, 0, a.numSyms*4)
	accept := []bool{1&a.accept != 0}
	for st := 0; st < len(masks); st++ {
		for sym := 0; sym < a.numSyms; sym++ {
			nm := a.step(masks[st], uint8(sym))
			if nm == 0 {
				next = append(next, -1)
				continue
			}
			j, ok := idx[nm]
			if !ok {
				if len(masks) >= maxDFAStates {
					return
				}
				j = int32(len(masks))
				idx[nm] = j
				masks = append(masks, nm)
				accept = append(accept, nm&a.accept != 0)
			}
			next = append(next, j)
		}
	}
	a.dfaNext = next
	a.dfaAccept = accept
}

func (c *Compiled) String() string {
	links, dfaLinks := 0, 0
	for a := c.head; a != nil; a = a.next {
		links++
		if a.dfaNext != nil {
			dfaLinks++
		}
	}
	nfa, dfa := c.States()
	mode := "dfa"
	if dfaLinks < links {
		mode = "nfa"
	}
	return fmt.Sprintf("compiled{%s: %d links, %d nfa states, %d dfa states, %s walk}",
		c.expr, links, nfa, dfa, mode)
}
