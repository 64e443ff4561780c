package gtest

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"structix/internal/graph"
	"structix/internal/snap"
)

// Maintained is the write surface the 1-index and the A(k) family share.
type Maintained interface {
	Graph() *graph.Graph
	ApplyBatch(ops []graph.EdgeOp) error
	InsertNode(label graph.LabelID, parent graph.NodeID, kind graph.EdgeKind) (graph.NodeID, error)
	DeleteNode(v graph.NodeID) error
	DeleteSubgraph(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error)
	AddSubgraph(sg *graph.Subgraph) ([]graph.NodeID, error)
}

// Churner drives random writes of every kind through a maintained index,
// one per Step, so a test can publish and check after each.
type Churner struct {
	Rng *rand.Rand
	X   Maintained

	cut *graph.Subgraph // deleted by the last step, re-grafted by the next
}

// Step applies one random write and names its kind: an edge batch, a node
// script (leaf insertions, a value change, a leaf deletion), or a subtree
// deletion, which the following Step undoes by re-grafting the subtree
// (under fresh node ids).
func (c *Churner) Step() (string, error) {
	g := c.X.Graph()
	if c.cut != nil {
		sg := c.cut
		c.cut = nil
		_, err := c.X.AddSubgraph(sg)
		return "graft", err
	}
	switch c.Rng.Intn(4) {
	case 0:
		nodes := g.Nodes()
		for i := 1 + c.Rng.Intn(4); i > 0; i-- {
			parent := nodes[c.Rng.Intn(len(nodes))]
			label := g.Labels().Intern(randLabels[c.Rng.Intn(len(randLabels))])
			v, err := c.X.InsertNode(label, parent, graph.Tree)
			if err != nil {
				return "script", err
			}
			nodes = append(nodes, v)
		}
		g.SetValue(nodes[c.Rng.Intn(len(nodes))], fmt.Sprintf("v%d", c.Rng.Intn(100)))
		for _, v := range nodes {
			if v != g.Root() && g.OutDegree(v) == 0 && c.Rng.Intn(8) == 0 {
				return "script", c.X.DeleteNode(v)
			}
		}
		return "script", nil
	case 1:
		nodes := g.Nodes()
		root := nodes[c.Rng.Intn(len(nodes))]
		if root == g.Root() || len(g.Reachable(root, true)) > len(nodes)/4 {
			return c.Step()
		}
		sg, err := c.X.DeleteSubgraph(root, true)
		c.cut = sg
		return "cut", err
	default:
		ops := RandomOpBatch(c.Rng, g.Clone(), 1+c.Rng.Intn(8), false)
		return "edges", c.X.ApplyBatch(ops)
	}
}

// FrozenDiff compares two frozen graphs on every accessor of every node
// slot (and one past each end) and describes the first difference, ""
// when there is none.
func FrozenDiff(a, b *graph.Frozen) string {
	if a.Root() != b.Root() || a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() ||
		a.MaxNodeID() != b.MaxNodeID() || a.AllowSelfLoops() != b.AllowSelfLoops() {
		return fmt.Sprintf("header: root %d/%d nodes %d/%d edges %d/%d max %d/%d",
			a.Root(), b.Root(), a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges(), a.MaxNodeID(), b.MaxNodeID())
	}
	adj := func(f *graph.Frozen, v graph.NodeID) (out []graph.Edge) {
		f.EachSucc(v, func(w graph.NodeID, k graph.EdgeKind) { out = append(out, graph.Edge{To: w, Kind: k}) })
		out = append(out, graph.Edge{To: graph.InvalidNode})
		f.EachPred(v, func(u graph.NodeID, k graph.EdgeKind) { out = append(out, graph.Edge{To: u, Kind: k}) })
		return out
	}
	for v := graph.NodeID(-1); v <= a.MaxNodeID(); v++ {
		if a.Alive(v) != b.Alive(v) || a.LabelName(v) != b.LabelName(v) || a.Value(v) != b.Value(v) {
			return fmt.Sprintf("node %d: alive %v/%v label %q/%q value %q/%q",
				v, a.Alive(v), b.Alive(v), a.LabelName(v), b.LabelName(v), a.Value(v), b.Value(v))
		}
		if x, y := adj(a, v), adj(b, v); !slices.Equal(x, y) {
			return fmt.Sprintf("node %d: adjacency %v / %v", v, x, y)
		}
	}
	return ""
}

// SnapshotDiff compares two index snapshots — and their frozen graphs —
// on every accessor of every inode slot (and one past each end) and
// describes the first difference, "" when there is none.
func SnapshotDiff(a, b *snap.Snapshot) string {
	if d := FrozenDiff(a.Data(), b.Data()); d != "" {
		return "data: " + d
	}
	ad, ae := a.ExtentBytes()
	bd, be := b.ExtentBytes()
	if a.Slots() != b.Slots() || a.Size() != b.Size() || a.RootINode() != b.RootINode() ||
		a.Codec() != b.Codec() || a.K() != b.K() || ad != bd || ae != be {
		return fmt.Sprintf("header: slots %d/%d size %d/%d root %d/%d codec %v/%v k %d/%d bytes %d+%d/%d+%d",
			a.Slots(), b.Slots(), a.Size(), b.Size(), a.RootINode(), b.RootINode(), a.Codec(), b.Codec(), a.K(), b.K(), ad, ae, bd, be)
	}
	for i := snap.ID(-1); int(i) <= a.Slots(); i++ {
		if a.Live(i) != b.Live(i) || a.LabelName(i) != b.LabelName(i) {
			return fmt.Sprintf("slot %d: live %v/%v label %q/%q", i, a.Live(i), b.Live(i), a.LabelName(i), b.LabelName(i))
		}
		if !slices.Equal(a.ISucc(i), b.ISucc(i)) {
			return fmt.Sprintf("slot %d: successors %v / %v", i, a.ISucc(i), b.ISucc(i))
		}
		av, bv := a.ExtentView(i), b.ExtentView(i)
		if av.IsCompressed() != bv.IsCompressed() || !bytes.Equal(av.Encoded(), bv.Encoded()) || av.Bytes() != bv.Bytes() {
			return fmt.Sprintf("slot %d: extent representations differ", i)
		}
		if !slices.Equal(a.Extent(i), b.Extent(i)) || a.ExtentSize(i) != b.ExtentSize(i) ||
			!slices.Equal(av.AppendTo(nil), a.Extent(i)) {
			return fmt.Sprintf("slot %d: extent %v / %v", i, a.Extent(i), b.Extent(i))
		}
	}
	return ""
}

// BreadthFirstDiff checks that a snapshot's inodes are numbered the way
// oneindex.Build numbers them — breadth-first in first-reach order from
// the root — and describes the first violation, "" when there is none.
// The slots must be dense and the root must be slot 0; the slots the root
// reaches must come first; and, calling a reached slot's parent its
// smallest-numbered predecessor, every parent precedes its child and a
// later slot never has an earlier parent. Together these say the ids are
// the discovery order of a FIFO walk over the inode graph.
func BreadthFirstDiff(s *snap.Snapshot) string {
	n := s.Slots()
	if s.Size() != n {
		return fmt.Sprintf("%d live inodes in %d slots: ids are not dense", s.Size(), n)
	}
	if n > 0 && s.RootINode() != 0 {
		return fmt.Sprintf("root inode is %d, want 0", s.RootINode())
	}
	parent := make([]snap.ID, n)
	for i := range parent {
		parent[i] = -1
	}
	reached := make([]bool, n)
	if n > 0 {
		reached[0] = true
	}
	// Slot ids ascend along the walk, so one ascending pass sees every
	// reached slot before its successors need it.
	for i := snap.ID(0); int(i) < n; i++ {
		if !reached[i] {
			continue
		}
		for _, j := range s.ISucc(i) {
			if !reached[j] {
				if j < i {
					return fmt.Sprintf("slot %d is reached from %d but numbered before it", j, i)
				}
				reached[j], parent[j] = true, i
			}
		}
	}
	for i := 1; i < n; i++ {
		switch {
		case reached[i] && !reached[i-1]:
			return fmt.Sprintf("reached slot %d follows unreached slot %d", i, i-1)
		case reached[i] && parent[i] < parent[i-1]:
			return fmt.Sprintf("slot %d (parent %d) follows slot %d (parent %d)", i, parent[i], i-1, parent[i-1])
		}
	}
	return ""
}

// GrowOneByOne builds a small graph, hands it to build, and runs rounds of
// writes that each leave the index one inode larger — a leaf under the root
// with a label of its own — and then split a two-member inode and merge it
// back, so every round runs the split phase over the grown arena. It
// returns how many times capOf's result changed across the rounds.
func GrowOneByOne(rounds int, build func(*graph.Graph) Maintained, capOf func() int) (changes int, err error) {
	g := graph.New()
	root := g.AddNode("root")
	g.SetRoot(root)
	a1, a2, c := g.AddNode("a"), g.AddNode("a"), g.AddNode("c")
	for _, v := range []graph.NodeID{a1, a2, c} {
		mustAdd(g, root, v)
	}
	x := build(g)
	last := capOf()
	for i := 0; i < rounds; i++ {
		if _, err := x.InsertNode(g.Labels().Intern(fmt.Sprintf("leaf%d", i)), root, graph.Tree); err != nil {
			return changes, err
		}
		if err := x.ApplyBatch([]graph.EdgeOp{graph.InsertOp(c, a1, graph.IDRef)}); err != nil {
			return changes, err
		}
		if err := x.ApplyBatch([]graph.EdgeOp{graph.DeleteOp(c, a1)}); err != nil {
			return changes, err
		}
		if n := capOf(); n != last {
			changes, last = changes+1, n
		}
	}
	return changes, nil
}
