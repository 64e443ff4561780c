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

	"structix/internal/graph"
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

// parseNodes reads two node operands. A NodeID is 32 bits wide, so an
// operand outside that range is an error, not a wrap onto a live node.
func parseNodes(a string, u *graph.NodeID, b string, v *graph.NodeID) error {
	ai, err := strconv.ParseInt(a, 10, 32)
	if err != nil {
		return fmt.Errorf("bad node id %q", a)
	}
	bi, err := strconv.ParseInt(b, 10, 32)
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

// ToEdgeOp is the inverse of FromEdgeOp: the graph.EdgeOp of an insert or
// delete; ok is false for the node and subtree ops.
func ToEdgeOp(op Op) (_ graph.EdgeOp, ok bool) {
	switch op.Kind {
	case Insert:
		return graph.InsertOp(op.U, op.V, op.Edge), true
	case Delete:
		return graph.DeleteOp(op.U, op.V), true
	}
	return graph.EdgeOp{}, false
}

// OpError reports the script operation that made Apply stop: Index is the
// 0-based position in the ops slice, Op the operation, and Err the
// underlying cause (graph.ErrEdgeExists, graph.ErrNoEdge, ..., retrievable
// with errors.Is/errors.As). Operations before Index have been
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
// index families satisfy it (the facade's Index embeds it).
type Target interface {
	InsertEdge(u, v graph.NodeID, kind graph.EdgeKind) error
	DeleteEdge(u, v graph.NodeID) error
	InsertNode(label graph.LabelID, parent graph.NodeID, kind graph.EdgeKind) (graph.NodeID, error)
	DeleteNode(v graph.NodeID) error
	DeleteSubgraph(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error)
	Graph() *graph.Graph
}

// guardOp rejects an op naming a dead (or never-allocated) node before it
// reaches the graph layer: the graph's mutators treat invalid ids as caller
// bugs and panic, but scripts arrive from untrusted sources (files, the
// network), so liveness is a script error, not a programming error. An
// addnode parent must be live too: the driver reads InvalidNode as "add
// detached", which a script must not reach — nothing could ever get to
// the node. The deletions check their own operands (maint.Driver), except
// for one rule of the store's: the driver lets DeleteNode remove a root
// that is the graph's last node, but a script's graph keeps its root, the
// one node every later write can attach below.
func guardOp(g *graph.Graph, op Op) error {
	switch op.Kind {
	case Insert, Delete:
		if !g.Alive(op.U) || !g.Alive(op.V) {
			return graph.ErrDeadNode
		}
	case AddNode:
		if !g.Alive(op.V) {
			return graph.ErrDeadNode
		}
	case DelNode:
		if op.U == g.Root() && g.Alive(op.U) {
			return graph.ErrRootNode
		}
	}
	return nil
}

// Apply runs a script against a maintained index. It stops at the first
// failing operation, returning the error together with how far it got.
func Apply(x Target, ops []Op) (Result, error) {
	res, _, err := ApplyCut(x, ops)
	return res, err
}

// ApplyCut is Apply that also returns the subgraph the script's last
// delsub removed (nil if none) — what a store's DeleteSubtree hands back.
func ApplyCut(x Target, ops []Op) (res Result, cut *graph.Subgraph, _ error) {
	g := x.Graph()
	for i, op := range ops {
		if err := guardOp(g, op); err != nil {
			return res, cut, &OpError{Index: i, Op: op, Err: err}
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
				cut = sg
			}
		}
		if err != nil {
			return res, cut, &OpError{Index: i, Op: op, Err: err}
		}
		res.Applied++
	}
	return res, cut, nil
}

// BatchResult is the Result of an atomic edge batch that applied: every op
// counted as an insert or a delete.
func BatchResult(ops []graph.EdgeOp) Result {
	res := Result{Applied: len(ops)}
	for _, op := range ops {
		if op.Insert {
			res.Inserted++
		} else {
			res.Deleted++
		}
	}
	return res
}
