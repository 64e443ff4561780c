package opscript

import (
	"bytes"
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

// ApplyShared maintains several indexes over one graph with a single
// mutation per op; both must end exactly where independent maintenance
// would have put them.
func TestApplyShared(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(256, 0, 7)) // acyclic: minimum unique
	ops := mixedOps(g, 40, 7)
	one := oneindex.Build(g)
	ak := akindex.Build(g, 2)
	res, err := ApplyShared(g, ops, one, ak)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != len(ops) {
		t.Fatalf("applied %d of %d", res.Applied, len(ops))
	}
	if err := one.Validate(); err != nil {
		t.Fatalf("1-index: %v", err)
	}
	if err := ak.Validate(); err != nil {
		t.Fatalf("A(k): %v", err)
	}
	if !partition.Equal(one.ToPartition(), partition.CoarsestStable(g, partition.ByLabel(g))) {
		t.Errorf("shared-maintained 1-index not minimum")
	}
	if !ak.IsMinimum() {
		t.Errorf("shared-maintained A(k) family not minimum")
	}
	// Node ops are rejected in shared mode.
	if _, err := ApplyShared(g, []Op{{Kind: DelNode, U: 1}}, one, ak); err == nil {
		t.Errorf("shared mode accepted a node op")
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
