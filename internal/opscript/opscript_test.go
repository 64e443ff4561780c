package opscript

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"structix/internal/akindex"
	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/partition"
	"structix/internal/workload"
)

func TestParseAndFormatRoundTrip(t *testing.T) {
	src := `
# a comment

insert 1 2 idref
insert 3 4 tree
insert 5 6
delete 1 2
addnode widget 7
delnode 8
delsub 9
`
	ops, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 7 {
		t.Fatalf("parsed %d ops, want 7", len(ops))
	}
	if ops[1].Edge != graph.Tree || ops[2].Edge != graph.IDRef {
		t.Errorf("edge kinds wrong: %+v %+v", ops[1], ops[2])
	}
	if ops[4].Label != "widget" || ops[4].V != 7 {
		t.Errorf("addnode parsed wrong: %+v", ops[4])
	}
	var buf bytes.Buffer
	if err := Format(&buf, ops); err != nil {
		t.Fatal(err)
	}
	again, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(ops) {
		t.Fatalf("re-parse lost ops")
	}
	for i := range ops {
		if ops[i] != again[i] {
			t.Errorf("op %d changed across round trip: %+v vs %+v", i, ops[i], again[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"frobnicate 1 2",
		"insert 1",
		"insert x y",
		"insert 1 2 sideways",
		"delete 1 2 3",
		"addnode onlylabel",
		"delnode",
		"delsub a",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// mixedOps is the script form of workload.InPlaceScript.
func mixedOps(g *graph.Graph, pairs int, seed int64) []Op {
	var ops []Op
	for _, op := range workload.InPlaceScript(g, pairs, seed) {
		ops = append(ops, FromEdgeOp(op))
	}
	return ops
}

func TestGenerateMixedValid(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(128, 1, 3))
	ops := mixedOps(g, 60, 3)
	if len(ops) != 120 {
		t.Fatalf("generated %d ops, want 120", len(ops))
	}
	// First op must be a delete (the graph starts with all edges present).
	if ops[0].Kind != Delete {
		t.Fatalf("first op is %s", ops[0].Kind)
	}
	// The script must apply cleanly to a maintained index on the same
	// graph.
	x := oneindex.Build(g)
	res, err := Apply(x, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 120 || res.Inserted != 60 || res.Deleted != 60 {
		t.Errorf("result %+v", res)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyAllKinds(t *testing.T) {
	g, _, _, ids := gtest.Fig2()
	x := oneindex.Build(g)
	ops := []Op{
		{Kind: Insert, U: ids["2"], V: ids["4"], Edge: graph.IDRef},
		{Kind: Delete, U: ids["2"], V: ids["4"]},
		{Kind: AddNode, Label: "b", V: ids["1"]},
		{Kind: DelSub, U: ids["5"]},
	}
	res, err := Apply(x, ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewNodes) != 1 {
		t.Fatalf("NewNodes = %v", res.NewNodes)
	}
	if res.Removed != 2 { // dnodes 5 and 8
		t.Errorf("Removed = %d, want 2", res.Removed)
	}
	// delnode on the node we added.
	if _, err := Apply(x, []Op{{Kind: DelNode, U: res.NewNodes[0]}}); err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if !partition.Equal(x.ToPartition(),
		partition.CoarsestStable(g, partition.ByLabel(g))) {
		t.Errorf("index not minimum after scripted ops on acyclic graph")
	}
}

func TestApplyStopsOnError(t *testing.T) {
	g, _, _, ids := gtest.Fig2()
	x := oneindex.Build(g)
	ops := []Op{
		{Kind: Insert, U: ids["2"], V: ids["4"], Edge: graph.IDRef},
		{Kind: Delete, U: ids["2"], V: ids["8"]}, // no such edge
		{Kind: Insert, U: ids["2"], V: ids["6"], Edge: graph.IDRef},
	}
	res, err := Apply(x, ops)
	if err == nil {
		t.Fatal("expected error")
	}
	if res.Applied != 1 || res.Inserted != 1 {
		t.Errorf("result %+v", res)
	}
	if err := x.Validate(); err != nil {
		t.Fatalf("index invalid after partial application: %v", err)
	}
}

// Both index families satisfy Target; the same script drives either.
func TestApplyToAkIndex(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(256, 1, 5))
	ops := mixedOps(g, 25, 5)
	x := akindex.Build(g, 2)
	if _, err := Apply(x, ops); err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if !x.IsMinimum() {
		t.Errorf("A(k) family not minimum after scripted workload")
	}
}

// TestNodeIDRange feeds node operands just inside and just outside the
// 32-bit NodeID range to the text parser and the JSON decoder: outside is
// an error in both, never a wrap onto a live node (4294967296 is 0 in 32
// bits).
func TestNodeIDRange(t *testing.T) {
	for _, tc := range []struct {
		n  int64
		ok bool
	}{{2147483647, true}, {-2147483648, true}, {2147483648, false}, {4294967296, false}, {-2147483649, false}} {
		for _, text := range []string{
			fmt.Sprintf("insert %d 1", tc.n), fmt.Sprintf("insert 1 %d", tc.n), fmt.Sprintf("delete %d 1", tc.n),
			fmt.Sprintf("addnode a %d", tc.n), fmt.Sprintf("delnode %d", tc.n), fmt.Sprintf("delsub %d", tc.n),
		} {
			ops, err := Parse(strings.NewReader(text))
			if (err == nil) != tc.ok {
				t.Errorf("Parse(%q) = %v, %v", text, ops, err)
			}
		}
		for _, js := range []string{
			fmt.Sprintf(`{"op":"insert","u":%d,"v":1}`, tc.n), fmt.Sprintf(`{"op":"delete","u":1,"v":%d}`, tc.n),
			fmt.Sprintf(`{"op":"addnode","label":"a","parent":%d}`, tc.n),
			fmt.Sprintf(`{"op":"delnode","node":%d}`, tc.n), fmt.Sprintf(`{"op":"delsub","node":%d}`, tc.n),
		} {
			var op Op
			if err := json.Unmarshal([]byte(js), &op); (err == nil) != tc.ok {
				t.Errorf("Unmarshal(%s) = %+v, %v", js, op, err)
			}
		}
	}
}

// TestAddNodeUnreachableParent parses addnode scripts whose parent is not
// a live node — the invalid id -1, a deleted node, an id never allocated —
// and applies each: the op fails with ErrDeadNode and adds nothing, where
// -1 once added a node with no parent that nothing could reach.
func TestAddNodeUnreachableParent(t *testing.T) {
	g, _, _, ids := gtest.Fig2()
	x := oneindex.Build(g)
	if err := x.DeleteNode(ids["8"]); err != nil {
		t.Fatal(err)
	}
	for _, parent := range []graph.NodeID{graph.InvalidNode, ids["8"], g.MaxNodeID() + 5} {
		ops, err := Parse(strings.NewReader(fmt.Sprintf("addnode x %d\n", parent)))
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.NumNodes()
		res, err := Apply(x, ops)
		var oe *OpError
		if !errors.As(err, &oe) || oe.Index != 0 || !errors.Is(err, graph.ErrDeadNode) || res.Applied != 0 {
			t.Fatalf("addnode x %d: %+v, %v; want ErrDeadNode at op 0", parent, res, err)
		}
		if g.NumNodes() != nodes {
			t.Fatalf("addnode x %d added a node", parent)
		}
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}
