package opscript

import (
	"encoding/json"
	"fmt"
	"math"

	"structix/internal/graph"
)

// JSON wire format for script operations, used by the network serving
// layer (internal/server, internal/client). The vocabulary is exactly the
// textual script format's, spelled as JSON objects:
//
//	{"op":"insert","u":1,"v":2,"kind":"idref"}
//	{"op":"delete","u":1,"v":2}
//	{"op":"addnode","label":"person","parent":7}
//	{"op":"delnode","node":9}
//	{"op":"delsub","node":4}
//
// Node-id fields are encoded as pointers internally so that node 0 (a
// perfectly good NodeID) survives the round trip and a *missing* operand
// is still detectable as an error.

type opWire struct {
	Op     string `json:"op"`
	U      *int64 `json:"u,omitempty"`
	V      *int64 `json:"v,omitempty"`
	Kind   string `json:"kind,omitempty"`   // insert only: "tree" or "idref"
	Label  string `json:"label,omitempty"`  // addnode only
	Parent *int64 `json:"parent,omitempty"` // addnode only
	Node   *int64 `json:"node,omitempty"`   // delnode/delsub only
}

func nodeRef(v graph.NodeID) *int64 { n := int64(v); return &n }

// MarshalJSON encodes the op in the wire vocabulary above.
func (op Op) MarshalJSON() ([]byte, error) {
	var w opWire
	switch op.Kind {
	case Insert:
		w.Op = "insert"
		w.U, w.V = nodeRef(op.U), nodeRef(op.V)
		w.Kind = "idref"
		if op.Edge == graph.Tree {
			w.Kind = "tree"
		}
	case Delete:
		w.Op = "delete"
		w.U, w.V = nodeRef(op.U), nodeRef(op.V)
	case AddNode:
		w.Op = "addnode"
		w.Label = op.Label
		w.Parent = nodeRef(op.V)
	case DelNode:
		w.Op = "delnode"
		w.Node = nodeRef(op.U)
	case DelSub:
		w.Op = "delsub"
		w.Node = nodeRef(op.U)
	default:
		return nil, fmt.Errorf("opscript: cannot marshal unknown op kind %v", op.Kind)
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire vocabulary, rejecting unknown operations
// and missing operands.
func (op *Op) UnmarshalJSON(data []byte) error {
	var w opWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("opscript: %w", err)
	}
	need := func(name string, p *int64, dst *graph.NodeID) error {
		if p == nil {
			return fmt.Errorf("opscript: %s wants %q", w.Op, name)
		}
		if *p < math.MinInt32 || *p > math.MaxInt32 {
			return fmt.Errorf("opscript: %s %q %d is out of the node id range", w.Op, name, *p)
		}
		*dst = graph.NodeID(*p)
		return nil
	}
	*op = Op{}
	switch w.Op {
	case "insert":
		op.Kind = Insert
		switch w.Kind {
		case "", "idref":
			op.Edge = graph.IDRef
		case "tree":
			op.Edge = graph.Tree
		default:
			return fmt.Errorf("opscript: unknown edge kind %q", w.Kind)
		}
		if err := need("u", w.U, &op.U); err != nil {
			return err
		}
		return need("v", w.V, &op.V)
	case "delete":
		op.Kind = Delete
		if err := need("u", w.U, &op.U); err != nil {
			return err
		}
		return need("v", w.V, &op.V)
	case "addnode":
		op.Kind = AddNode
		op.Label = w.Label
		if op.Label == "" {
			return fmt.Errorf("opscript: addnode wants a label")
		}
		return need("parent", w.Parent, &op.V)
	case "delnode":
		op.Kind = DelNode
		return need("node", w.Node, &op.U)
	case "delsub":
		op.Kind = DelSub
		return need("node", w.Node, &op.U)
	default:
		return fmt.Errorf("opscript: unknown operation %q", w.Op)
	}
}
