// Package partition implements the partition refinement that underlies
// structural-index construction: one signature-refinement engine (see
// refiner) whose round splits every block by its members' sets of parent
// blocks. KBisimLevels runs k rounds from the label partition for the
// minimum A(0)..A(k) indexes (Definition 4); CoarsestStable runs them to
// the fixpoint, which from the label partition is the minimum 1-index
// (Lemma 1). NaiveCoarsestStable is the reference the tests compare it
// with.
//
// Terminology follows the paper (§3): a block (inode extent) I is stable
// with respect to a block J if I ⊆ Succ(J) or I ∩ Succ(J) = ∅. A partition
// is stable with respect to another if every block of the first is stable
// with respect to every block of the second. The 1-index is a label-pure
// partition stable with respect to itself; the minimum 1-index is its
// coarsest such refinement of the label partition.
package partition

import (
	"fmt"
	"sort"

	"structix/internal/graph"
)

// NoBlock marks dead (deleted) nodes in a Partition.
const NoBlock int32 = -1

// Partition assigns each live node of a graph to a block. Blocks are
// identified by dense non-negative int32 ids; deleted nodes map to NoBlock.
type Partition struct {
	blockOf   []int32 // indexed by NodeID
	numBlocks int
}

// NewPartition creates a partition skeleton for a graph with the given
// NodeID bound; all entries start at NoBlock.
func NewPartition(maxNode graph.NodeID) *Partition {
	p := &Partition{blockOf: make([]int32, maxNode)}
	for i := range p.blockOf {
		p.blockOf[i] = NoBlock
	}
	return p
}

// Block returns the block id of node v (NoBlock for dead nodes).
func (p *Partition) Block(v graph.NodeID) int32 { return p.blockOf[v] }

// blockAt is Block with out-of-range indices reading as NoBlock.
func (p *Partition) blockAt(i int) int32 {
	if i >= len(p.blockOf) {
		return NoBlock
	}
	return p.blockOf[i]
}

// SetBlock assigns node v to block b. Callers must keep block ids dense and
// update NumBlocks via SetNumBlocks; the construction helpers in this
// package do this for you.
func (p *Partition) SetBlock(v graph.NodeID, b int32) { p.blockOf[v] = b }

// NumBlocks returns the number of blocks.
func (p *Partition) NumBlocks() int { return p.numBlocks }

// SetNumBlocks records the number of blocks.
func (p *Partition) SetNumBlocks(n int) { p.numBlocks = n }

// Len returns the NodeID bound the partition was created with.
func (p *Partition) Len() int { return len(p.blockOf) }

// Clone returns a deep copy.
func (p *Partition) Clone() *Partition {
	cp := &Partition{
		blockOf:   append([]int32(nil), p.blockOf...),
		numBlocks: p.numBlocks,
	}
	return cp
}

// Blocks materializes the partition as a slice of member lists indexed by
// block id. Nodes within a block appear in increasing NodeID order.
func (p *Partition) Blocks() [][]graph.NodeID {
	out := make([][]graph.NodeID, p.numBlocks)
	for i, b := range p.blockOf {
		if b != NoBlock {
			out[b] = append(out[b], graph.NodeID(i))
		}
	}
	return out
}

// ByLabel partitions the live nodes of g by label: the A(0)-index partition
// (Definition 4), and the starting point for 1-index construction.
func ByLabel(g *graph.Graph) *Partition {
	p := NewPartition(g.MaxNodeID())
	next := int32(0)
	byLabel := make([]int32, g.Labels().Len()) // LabelID → its block + 1, 0 until seen
	g.EachNode(func(v graph.NodeID) {
		l := g.Label(v)
		if byLabel[l] == 0 {
			next++
			byLabel[l] = next
		}
		p.blockOf[v] = byLabel[l] - 1
	})
	p.numBlocks = int(next)
	return p
}

// Equal reports whether two partitions induce the same grouping of the same
// live node set (block ids may differ). NodeID spaces may differ in length
// as long as the surplus slots are dead: deleting a node does not shrink
// the id space, so two otherwise-identical histories can disagree on Len.
func Equal(p, q *Partition) bool {
	n := max(p.Len(), q.Len())
	// Bijection check between block ids.
	p2q := make(map[int32]int32)
	q2p := make(map[int32]int32)
	for i := 0; i < n; i++ {
		pb, qb := p.blockAt(i), q.blockAt(i)
		if (pb == NoBlock) != (qb == NoBlock) {
			return false
		}
		if pb == NoBlock {
			continue
		}
		if m, ok := p2q[pb]; ok {
			if m != qb {
				return false
			}
		} else {
			p2q[pb] = qb
		}
		if m, ok := q2p[qb]; ok {
			if m != pb {
				return false
			}
		} else {
			q2p[qb] = pb
		}
	}
	return true
}

// IsRefinementOf reports whether p refines q in the sense of Definition 3:
// every block of p is contained in a single block of q. As with Equal,
// surplus id-space slots must be dead on both sides.
func IsRefinementOf(p, q *Partition) bool {
	n := max(p.Len(), q.Len())
	image := make(map[int32]int32)
	for i := 0; i < n; i++ {
		pb, qb := p.blockAt(i), q.blockAt(i)
		if (pb == NoBlock) != (qb == NoBlock) {
			return false
		}
		if pb == NoBlock {
			continue
		}
		if m, ok := image[pb]; ok {
			if m != qb {
				return false
			}
		} else {
			image[pb] = qb
		}
	}
	return true
}

// IsLabelPure reports whether every block of p contains nodes of a single
// label.
func IsLabelPure(g *graph.Graph, p *Partition) bool {
	labelOf := make(map[int32]graph.LabelID)
	pure := true
	g.EachNode(func(v graph.NodeID) {
		b := p.blockOf[v]
		if b == NoBlock {
			pure = false
			return
		}
		if l, ok := labelOf[b]; ok {
			if l != g.Label(v) {
				pure = false
			}
		} else {
			labelOf[b] = g.Label(v)
		}
	})
	return pure
}

// IsStableWrt reports whether p is stable with respect to q over graph g:
// for every block I of p and J of q, I ⊆ Succ(J) or I ∩ Succ(J) = ∅.
// It runs in O(|blocks(q)| + total-degree) time using one marking pass per
// q-block and is intended for tests and validation, not hot paths.
func IsStableWrt(g *graph.Graph, p, q *Partition) bool {
	qBlocks := q.Blocks()
	pSizes := blockSizes(p)
	touched := make(map[int32]int)
	mark := make([]bool, p.Len())
	for _, J := range qBlocks {
		// Mark Succ(J), deduplicated.
		var marked []graph.NodeID
		for _, u := range J {
			g.EachSucc(u, func(w graph.NodeID, _ graph.EdgeKind) {
				if !mark[w] {
					mark[w] = true
					marked = append(marked, w)
				}
			})
		}
		for k := range touched {
			delete(touched, k)
		}
		for _, w := range marked {
			if b := p.blockOf[w]; b != NoBlock {
				touched[b]++
			}
		}
		ok := true
		for b, cnt := range touched {
			if cnt != pSizes[b] {
				ok = false
				break
			}
		}
		for _, w := range marked {
			mark[w] = false
		}
		if !ok {
			return false
		}
	}
	return true
}

// IsSelfStable reports whether p is stable with respect to itself, i.e.
// whether (combined with label purity) p is a valid 1-index partition.
func IsSelfStable(g *graph.Graph, p *Partition) bool {
	return IsStableWrt(g, p, p)
}

func blockSizes(p *Partition) map[int32]int {
	sizes := make(map[int32]int)
	for _, b := range p.blockOf {
		if b != NoBlock {
			sizes[b]++
		}
	}
	return sizes
}

// Fingerprint returns a canonical string describing the partition, useful
// in test failure messages. Blocks are listed sorted by their smallest
// member.
func (p *Partition) Fingerprint() string {
	blocks := p.Blocks()
	sort.Slice(blocks, func(i, j int) bool {
		if len(blocks[i]) == 0 || len(blocks[j]) == 0 {
			return len(blocks[j]) == 0 && len(blocks[i]) != 0
		}
		return blocks[i][0] < blocks[j][0]
	})
	s := ""
	for _, b := range blocks {
		if len(b) == 0 {
			continue
		}
		s += fmt.Sprint(b)
	}
	return s
}
