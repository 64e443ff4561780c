package structix_test

import (
	"bytes"
	"strings"
	"testing"

	"structix"
)

// Facade surface tests: every exported entry point does what its alias
// target does, so a thin pass over each is enough.

func TestFacadePaths(t *testing.T) {
	if _, err := structix.ParsePath("//a["); err == nil {
		t.Errorf("bad expression accepted")
	}
	p, err := structix.ParsePath(`//person[name='x']`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 || !p.HasPredicates() {
		t.Errorf("parsed path wrong: %s", p)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustParsePath did not panic")
		}
	}()
	structix.MustParsePath("///")
}

func TestFacadeCountsAndSelectivity(t *testing.T) {
	g, err := structix.ParseXMLString(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	data := g.Freeze()
	one := structix.BuildOneIndex(g).Freeze(data)
	ak := structix.BuildAkIndex(g, 2).Freeze(data)
	p := structix.MustParsePath("//person/name")
	direct := len(structix.EvalGraph(p, g))
	if got := structix.CountSnapshot(p, one); got != direct {
		t.Errorf("1-index CountSnapshot = %d, want %d", got, direct)
	}
	if got := structix.CountSnapshot(p, ak); got != direct {
		t.Errorf("A(k) CountSnapshot = %d, want %d", got, direct)
	}
	if got := len(structix.SnapshotCandidates(p, ak)); got < direct {
		t.Errorf("A(k) candidates undercount")
	}
	if s := structix.Selectivity(p, one); s <= 0 || s > 1 {
		t.Errorf("Selectivity = %v", s)
	}
}

func TestFacadeDataGuide(t *testing.T) {
	g, err := structix.ParseXMLString(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := structix.BuildDataGuide(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := structix.MustParsePath("//person/name")
	if got, want := len(d.Eval(p)), len(structix.EvalGraph(p, g)); got != want {
		t.Errorf("DataGuide eval = %d, want %d", got, want)
	}
	if structix.ErrDataGuideTooLarge == nil {
		t.Errorf("sentinel error missing")
	}
}

func TestFacadeDkIndex(t *testing.T) {
	g := structix.GenerateXMark(structix.DefaultXMark(512, 1, 9))
	dk, err := structix.BuildDkIndex(g, structix.DkConfig{
		Targets:  map[string]int{"open_auction": 3},
		DefaultK: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := structix.MustParsePath("//open_auction/seller/person")
	direct := structix.EvalGraph(p, dk.Graph())
	got := dk.Eval(p)
	if len(got) != len(direct) {
		t.Errorf("DkIndex eval = %d, want %d", len(got), len(direct))
	}
	if dk.Size() == 0 || dk.KMax() < 3 {
		t.Errorf("DkIndex shape wrong: size=%d kmax=%d", dk.Size(), dk.KMax())
	}
}

func TestFacadeExtract(t *testing.T) {
	g, err := structix.ParseXMLString(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	var auction structix.NodeID = structix.InvalidNode
	g.EachNode(func(v structix.NodeID) {
		if g.LabelName(v) == "open_auction" {
			auction = v
		}
	})
	sg := structix.Extract(g, auction, true)
	if sg.NumNodes() == 0 {
		t.Errorf("empty extraction")
	}
}

func TestFacadeOpsRoundTrip(t *testing.T) {
	g := structix.GenerateXMark(structix.DefaultXMark(512, 1, 10))
	ops := structix.GenerateMixedOps(g, 10, 10)
	var buf bytes.Buffer
	if err := structix.FormatOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	again, err := structix.ParseOps(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(ops) {
		t.Fatalf("ops round trip lost entries")
	}
	one := structix.BuildOneIndex(g)
	ak := structix.BuildAkIndex(g, 2)
	res, err := structix.ApplyOpsShared(g, again, one, ak)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != len(ops) {
		t.Errorf("applied %d of %d", res.Applied, len(ops))
	}
	if err := one.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ak.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeConcurrentFullSurface(t *testing.T) {
	g, err := structix.ParseXMLString(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	c := structix.NewDB(structix.BuildOneIndex(g))
	// Node ops through the store.
	var person structix.NodeID = structix.InvalidNode
	g.EachNode(func(v structix.NodeID) {
		if g.LabelName(v) == "person" {
			person = v
		}
	})
	v, err := c.InsertNode("hobby", person)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Count(structix.MustParsePath("//person/hobby")); got != 1 {
		t.Errorf("Count after InsertNode = %d, want 1", got)
	}
	if err := c.DeleteNode(v); err != nil {
		t.Fatal(err)
	}
	// Subgraph ops through the store.
	var auction structix.NodeID = structix.InvalidNode
	g.EachNode(func(n structix.NodeID) {
		if g.LabelName(n) == "open_auction" {
			auction = n
		}
	})
	sg, err := c.DeleteSubtree(auction)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddSubgraph(sg); err != nil {
		t.Fatal(err)
	}
	if got := c.Count(structix.MustParsePath("//person")); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
