// Package opscript reads, writes and applies textual update
// scripts against indexed databases — the operational face of incremental
// maintenance: a stream of updates arrives, the indexes follow, no rebuild.
//
// The format is line-based; '#' starts a comment:
//
//	insert <u> <v> [tree|idref]   add the dedge u→v (default idref)
//	delete <u> <v>                remove the dedge u→v
//	addnode <label> <parent>      add a labeled node under parent
//	delnode <v>                   remove a node and its edges
//	delsub <root>                 remove the subtree rooted at root
//
// Node operands are NodeIDs as printed by xsi query/stats.
package opscript

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"structix/internal/akindex"
	"structix/internal/graph"
	"structix/internal/oneindex"
)

// Kind enumerates script operations.
type Kind uint8

// Script operation kinds.
const (
	Insert Kind = iota
	Delete
	AddNode
	DelNode
	DelSub
)

func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case AddNode:
		return "addnode"
	case DelNode:
		return "delnode"
	case DelSub:
		return "delsub"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Op is one scripted operation.
type Op struct {
	Kind  Kind
	U, V  graph.NodeID   // insert/delete: edge; addnode: V=parent; delnode/delsub: U
	Edge  graph.EdgeKind // insert only
	Label string         // addnode only
}

// Parse reads a script.
func Parse(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		op, err := parseOp(fields)
		if err != nil {
			return nil, fmt.Errorf("opscript: line %d: %v", lineNo, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("opscript: %w", err)
	}
	return ops, nil
}

func parseOp(fields []string) (Op, error) {
	var op Op
	switch fields[0] {
	case "insert":
		if len(fields) < 3 || len(fields) > 4 {
			return op, fmt.Errorf("insert wants 2-3 operands")
		}
		op.Kind = Insert
		op.Edge = graph.IDRef
		if len(fields) == 4 {
			switch fields[3] {
			case "tree":
				op.Edge = graph.Tree
			case "idref":
				op.Edge = graph.IDRef
			default:
				return op, fmt.Errorf("unknown edge kind %q", fields[3])
			}
		}
		return op, parseNodes(fields[1], &op.U, fields[2], &op.V)
	case "delete":
		if len(fields) != 3 {
			return op, fmt.Errorf("delete wants 2 operands")
		}
		op.Kind = Delete
		return op, parseNodes(fields[1], &op.U, fields[2], &op.V)
	case "addnode":
		if len(fields) != 3 {
			return op, fmt.Errorf("addnode wants label and parent")
		}
		op.Kind = AddNode
		op.Label = fields[1]
		return op, parseNodes(fields[2], &op.V, fields[2], &op.V)
	case "delnode":
		if len(fields) != 2 {
			return op, fmt.Errorf("delnode wants 1 operand")
		}
		op.Kind = DelNode
		return op, parseNodes(fields[1], &op.U, fields[1], &op.U)
	case "delsub":
		if len(fields) != 2 {
			return op, fmt.Errorf("delsub wants 1 operand")
		}
		op.Kind = DelSub
		return op, parseNodes(fields[1], &op.U, fields[1], &op.U)
	default:
		return op, fmt.Errorf("unknown operation %q", fields[0])
	}
}

func parseNodes(a string, u *graph.NodeID, b string, v *graph.NodeID) error {
	ai, err := strconv.Atoi(a)
	if err != nil {
		return fmt.Errorf("bad node id %q", a)
	}
	bi, err := strconv.Atoi(b)
	if err != nil {
		return fmt.Errorf("bad node id %q", b)
	}
	*u, *v = graph.NodeID(ai), graph.NodeID(bi)
	return nil
}

// Format writes a script.
func Format(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		switch op.Kind {
		case Insert:
			kind := "idref"
			if op.Edge == graph.Tree {
				kind = "tree"
			}
			fmt.Fprintf(bw, "insert %d %d %s\n", op.U, op.V, kind)
		case Delete:
			fmt.Fprintf(bw, "delete %d %d\n", op.U, op.V)
		case AddNode:
			fmt.Fprintf(bw, "addnode %s %d\n", op.Label, op.V)
		case DelNode:
			fmt.Fprintf(bw, "delnode %d\n", op.U)
		case DelSub:
			fmt.Fprintf(bw, "delsub %d\n", op.U)
		}
	}
	return bw.Flush()
}

// FromEdgeOp is the script form of an edge op.
func FromEdgeOp(op graph.EdgeOp) Op {
	if op.Insert {
		return Op{Kind: Insert, U: op.U, V: op.V, Edge: op.Kind}
	}
	return Op{Kind: Delete, U: op.U, V: op.V}
}

// OpError reports the script operation that made Apply (or ApplyShared)
// stop: Index is the 0-based position in the ops slice, Op the operation,
// and Err the underlying cause (graph.ErrEdgeExists, graph.ErrNoEdge, ...,
// retrievable with errors.Is/errors.As). Operations before Index have been
// applied; scripts are a stream, not an atomic batch — use the index
// ApplyBatch entry points when all-or-nothing semantics are required.
type OpError struct {
	Index int
	Op    Op
	Err   error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("opscript: op %d (%s): %v", e.Index+1, e.Op.Kind, e.Err)
}

// Unwrap exposes the cause to errors.Is/errors.As.
func (e *OpError) Unwrap() error { return e.Err }

// Result summarizes an application run.
type Result struct {
	Applied  int
	Inserted int
	Deleted  int
	NewNodes []graph.NodeID // ids created by addnode, in script order
	Removed  int            // nodes removed by delnode/delsub
}

// Target is the maintained-index surface a script runs against; both
// *oneindex.Index and *akindex.Index satisfy it.
type Target interface {
	InsertEdge(u, v graph.NodeID, kind graph.EdgeKind) error
	DeleteEdge(u, v graph.NodeID) error
	InsertNode(label graph.LabelID, parent graph.NodeID, kind graph.EdgeKind) (graph.NodeID, error)
	DeleteNode(v graph.NodeID) error
	DeleteSubgraph(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error)
	Graph() *graph.Graph
}

var (
	_ Target = (*oneindex.Index)(nil)
	_ Target = (*akindex.Index)(nil)
)

// EdgeTarget is the maintenance surface for indexes that follow a graph
// mutated externally; both index types satisfy it.
type EdgeTarget interface {
	NoteEdgeInserted(u, v graph.NodeID, kind graph.EdgeKind)
	NoteEdgeDeleted(u, v graph.NodeID)
}

var (
	_ EdgeTarget = (*oneindex.Index)(nil)
	_ EdgeTarget = (*akindex.Index)(nil)
)

// ApplyShared runs an edge-update script against *several* indexes that
// share one data graph: each graph mutation happens exactly once, and
// every index is maintained incrementally through its Note entry points.
// Only Insert and Delete operations are supported in shared mode; node and
// subtree operations require the single-index Apply.
// guardOp rejects an op naming a dead (or never-allocated) node before it
// reaches the graph layer: the graph's mutators treat invalid ids as caller
// bugs and panic, but scripts arrive from untrusted sources (files, the
// network), so liveness is a script error, not a programming error.
func guardOp(g *graph.Graph, op Op) error {
	switch op.Kind {
	case Insert, Delete:
		if !g.Alive(op.U) || !g.Alive(op.V) {
			return graph.ErrDeadNode
		}
	case DelNode, DelSub:
		if !g.Alive(op.U) {
			return graph.ErrDeadNode
		}
	}
	return nil
}

func ApplyShared(g *graph.Graph, ops []Op, targets ...EdgeTarget) (Result, error) {
	var res Result
	for i, op := range ops {
		if err := guardOp(g, op); err != nil {
			return res, &OpError{Index: i, Op: op, Err: err}
		}
		switch op.Kind {
		case Insert:
			if err := g.AddEdge(op.U, op.V, op.Edge); err != nil {
				return res, &OpError{Index: i, Op: op, Err: err}
			}
			for _, t := range targets {
				t.NoteEdgeInserted(op.U, op.V, op.Edge)
			}
			res.Inserted++
		case Delete:
			if err := g.DeleteEdge(op.U, op.V); err != nil {
				return res, &OpError{Index: i, Op: op, Err: err}
			}
			for _, t := range targets {
				t.NoteEdgeDeleted(op.U, op.V)
			}
			res.Deleted++
		default:
			return res, fmt.Errorf("opscript: op %d: %s is not supported in shared-graph mode", i+1, op.Kind)
		}
		res.Applied++
	}
	return res, nil
}

// Apply runs a script against a maintained index. It stops at the first
// failing operation, returning the error together with how far it got.
func Apply(x Target, ops []Op) (Result, error) {
	var res Result
	g := x.Graph()
	for i, op := range ops {
		if err := guardOp(g, op); err != nil {
			return res, &OpError{Index: i, Op: op, Err: err}
		}
		var err error
		switch op.Kind {
		case Insert:
			if err = x.InsertEdge(op.U, op.V, op.Edge); err == nil {
				res.Inserted++
			}
		case Delete:
			if err = x.DeleteEdge(op.U, op.V); err == nil {
				res.Deleted++
			}
		case AddNode:
			var v graph.NodeID
			if v, err = x.InsertNode(g.Labels().Intern(op.Label), op.V, graph.Tree); err == nil {
				res.NewNodes = append(res.NewNodes, v)
			}
		case DelNode:
			if err = x.DeleteNode(op.U); err == nil {
				res.Removed++
			}
		case DelSub:
			var sg *graph.Subgraph
			if sg, err = x.DeleteSubgraph(op.U, true); err == nil {
				res.Removed += sg.NumNodes()
			}
		}
		if err != nil {
			return res, &OpError{Index: i, Op: op, Err: err}
		}
		res.Applied++
	}
	return res, nil
}
