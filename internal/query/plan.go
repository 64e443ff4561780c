package query

import (
	"fmt"
	"sort"

	"structix/internal/graph"
	"structix/internal/snap"
)

// Strategy names an evaluation route for one expression.
type Strategy uint8

// Evaluation strategies, in the order the planner prefers them when costs
// tie.
const (
	// StrategyAkLevel evaluates on an A(k) level that is already precise
	// for the expression, so nothing is validated. A snapshot holds level k
	// only, so that is the level the planner names.
	StrategyAkLevel Strategy = iota
	// StrategyAkValidated evaluates on the A(k) level and validates.
	StrategyAkValidated
	// StrategyOneIndex evaluates on the 1-index (precise, no validation,
	// but the 1-index can be large on irregular data).
	StrategyOneIndex
	// StrategyDirect traverses the data graph.
	StrategyDirect
)

func (s Strategy) String() string {
	switch s {
	case StrategyAkLevel:
		return "ak-level"
	case StrategyAkValidated:
		return "ak-validated"
	case StrategyOneIndex:
		return "1-index"
	case StrategyDirect:
		return "direct"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Plan is a chosen strategy with its cost rationale.
type Plan struct {
	Strategy Strategy
	Level    int    // for StrategyAkLevel / StrategyAkValidated: the A(k) snapshot's k
	Reason   string // one-line explanation for EXPLAIN-style output
}

// Planner picks evaluation strategies over a set of snapshots pinned at
// one read point. Data is required: the frozen graph the snapshots were
// taken with. One (a 1-index snapshot) and Ak (an A(k) snapshot) may each
// be nil.
type Planner struct {
	Data    *graph.Frozen
	One, Ak *snap.Snapshot
}

// costedPlan is one strategy candidate with its estimated cost, in units
// of nodes the evaluator would touch.
type costedPlan struct {
	plan Plan
	cost float64
}

// Plan chooses the cheapest strategy for the expression by estimated
// cost. The cost model follows the paper's evaluation: evaluation cost
// tracks the number of (index) nodes the automaton touches, plus — for
// imprecise routes — the per-candidate validation work, so the ranking
// uses the snapshot sizes as walk bounds, extent counts (index-only, O(1)
// per matched slot) for the result and candidate volumes, and the graph's
// mean in-degree for the validation fan-out. Ties break in the fixed
// Strategy order.
func (pl *Planner) Plan(p *Path) Plan {
	return pl.rank(MustCompile(p))[0].plan
}

// rank returns every available strategy candidate costed for c's
// expression, cheapest first (ties in Strategy order).
func (pl *Planner) rank(c *Compiled) []costedPlan {
	p := c.Path()
	// The walk, the counts and NeedsValidation read only p's skeleton.
	anchored := !NeedsValidation(p, 1<<30) // no descendant steps at all
	n := float64(pl.Data.NumNodes())
	e := float64(pl.Data.NumEdges())
	fanIn := 1.0
	if n > 0 && e > n {
		fanIn = e / n
	}

	// Estimated result size, from the best synopsis available: exact from
	// the 1-index, an upper bound from the A(k)-index, a guess otherwise.
	result := n / 8
	akCands := 0.0
	if pl.Ak != nil {
		akCands = float64(c.extentCount(pl.Ak))
		result = akCands
	}
	if pl.One != nil {
		result = float64(c.extentCount(pl.One))
	}

	var cands []costedPlan
	add := func(plan Plan, cost float64) {
		plan.Reason += fmt.Sprintf(" (est. cost %.0f)", cost)
		cands = append(cands, costedPlan{plan: plan, cost: cost})
	}

	if pl.Ak != nil {
		k, size := pl.Ak.K(), float64(pl.Ak.Size())
		if anchored && p.Len() <= k {
			// Precise at level k, the level a snapshot holds: the walk bound
			// is its size. (Cheaper levels l < k need per-slot ancestors in
			// the snapshot.)
			add(Plan{
				Strategy: StrategyAkLevel,
				Level:    k,
				Reason: fmt.Sprintf("anchored %d-step expression ≤ k=%d: A(%d) is precise (%d inodes)",
					p.Len(), k, k, pl.Ak.Size()),
			}, size+result)
		} else {
			// Walk the A(k) graph, then validate each candidate with a
			// backward search: ~length × fan-in data nodes per candidate.
			valCost := 0.0
			if NeedsValidation(p, k) {
				valCost = akCands * float64(p.Len()) * fanIn
			}
			add(Plan{
				Strategy: StrategyAkValidated,
				Level:    k,
				Reason: fmt.Sprintf("A(%d) has %d inodes, ~%.0f candidates to validate",
					k, pl.Ak.Size(), akCands),
			}, size+valCost+result)
		}
	}
	if pl.One != nil {
		add(Plan{
			Strategy: StrategyOneIndex,
			Reason: fmt.Sprintf("1-index is precise and has %d inodes vs %.0f dnodes",
				pl.One.Size(), n),
		}, float64(pl.One.Size())+result)
	}
	add(Plan{
		Strategy: StrategyDirect,
		Reason:   "direct traversal touches the whole data graph",
	}, n+e)

	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].plan.Strategy < cands[j].plan.Strategy
	})
	return cands
}

// predCost ranks one predicate by the work a single check costs: the
// relative path's length, with descendant steps charged extra for their
// closure walk. Value comparisons tie-break ahead of bare existence
// tests — same traversal, but the equality test prunes harder, and a
// failed cheap check skips every later predicate on the step.
func predCost(pr *Predicate) int {
	c := 0
	for _, st := range pr.Rel.steps {
		c += 2
		if st.Descendant {
			c += 6
		}
	}
	if pr.HasValue {
		c--
	}
	return c
}

// OrderPredicates returns p with each step's predicates sorted
// cheapest-first (predCost), so candidate filtering fails fast on the
// inexpensive checks. Predicates are conjunctive, so reordering never
// changes the result. p itself is returned, untouched, when every step is
// already in cost order.
func OrderPredicates(p *Path) *Path {
	ordered := func(preds []*Predicate) bool {
		for i := 1; i < len(preds); i++ {
			if predCost(preds[i-1]) > predCost(preds[i]) {
				return false
			}
		}
		return true
	}
	dirty := false
	for _, st := range p.steps {
		if !ordered(st.Predicates) {
			dirty = true
			break
		}
	}
	if !dirty {
		return p
	}
	steps := make([]Step, len(p.steps))
	copy(steps, p.steps)
	for i := range steps {
		if ordered(steps[i].Predicates) {
			continue
		}
		preds := append([]*Predicate(nil), steps[i].Predicates...)
		sort.SliceStable(preds, func(a, b int) bool { return predCost(preds[a]) < predCost(preds[b]) })
		steps[i].Predicates = preds
	}
	return &Path{steps: steps}
}

// Eval plans and executes in one step, always returning the exact result.
func (pl *Planner) Eval(p *Path) ([]graph.NodeID, Plan) {
	c := MustCompile(OrderPredicates(p))
	plan := pl.rank(c)[0].plan
	return pl.exec(c, plan.Strategy), plan
}

// exec evaluates c by a structural strategy: on the snapshot it names, or
// over the data graph for the direct route. Every route is exact.
func (pl *Planner) exec(c *Compiled, st Strategy) []graph.NodeID {
	switch st {
	case StrategyAkLevel, StrategyAkValidated:
		return c.EvalSnapshot(pl.Ak)
	case StrategyOneIndex:
		return c.EvalSnapshot(pl.One)
	}
	return EvalGraph(c.Path(), pl.Data)
}
