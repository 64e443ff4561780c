package structix_test

import (
	"bytes"
	"strings"
	"testing"

	"structix"
)

const sampleDoc = `
<site>
  <people>
    <person id="p1"><name>Alice</name></person>
    <person id="p2"><name>Bob</name></person>
  </people>
  <open_auctions>
    <open_auction id="a1"><seller idref="p1"/></open_auction>
  </open_auctions>
</site>`

func TestFacadeEndToEnd(t *testing.T) {
	g, err := structix.ParseXMLString(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	one := structix.BuildOneIndex(g)
	if one.Size() == 0 || one.Size() > g.NumNodes() {
		t.Fatalf("index size %d out of range", one.Size())
	}
	p := structix.MustParsePath("//person/name")
	direct := structix.EvalGraph(p, g)
	viaIdx := structix.EvalSnapshot(p, one.Freeze(g.Freeze()))
	if len(direct) != 2 || len(viaIdx) != 2 {
		t.Fatalf("query results: direct %d, index %d, want 2", len(direct), len(viaIdx))
	}

	// Maintained update: give Bob a watch on the auction, creating a cycle
	// person→…→auction→seller→person? (seller points to Alice; use Bob.)
	var bob, auction structix.NodeID = structix.InvalidNode, structix.InvalidNode
	g.EachNode(func(v structix.NodeID) {
		switch {
		case g.LabelName(v) == "person" && bob == structix.InvalidNode:
		case g.LabelName(v) == "open_auction":
			auction = v
		}
	})
	// Find Bob as the person with no incoming IDREF.
	g.EachNode(func(v structix.NodeID) {
		if g.LabelName(v) != "person" {
			return
		}
		hasRef := false
		g.EachPred(v, func(u structix.NodeID, k structix.EdgeKind) {
			if k == structix.IDRef {
				hasRef = true
			}
		})
		if !hasRef {
			bob = v
		}
	})
	if bob == structix.InvalidNode || auction == structix.InvalidNode {
		t.Fatalf("setup: bob=%d auction=%d", bob, auction)
	}
	if err := one.InsertEdge(bob, auction, structix.IDRef); err != nil {
		t.Fatal(err)
	}
	if err := one.Validate(); err != nil {
		t.Fatal(err)
	}
	if !one.IsMinimal() {
		t.Errorf("index not minimal after facade update")
	}

	ak := structix.BuildAkIndex(g, 2).Freeze(g.Freeze())
	got := structix.EvalSnapshot(structix.MustParsePath("//open_auction/seller"), ak)
	if len(got) != 1 {
		t.Errorf("A(k) validated query returned %d results", len(got))
	}
	if raw := structix.CompilePath(structix.MustParsePath("//open_auction/seller")).Candidates(ak); len(raw) < len(got) {
		t.Errorf("raw A(k) result smaller than validated")
	}
}

func TestFacadeGenerators(t *testing.T) {
	g := structix.GenerateXMark(structix.DefaultXMark(512, 1, 1))
	if g.NumNodes() == 0 {
		t.Fatal("empty XMark graph")
	}
	h := structix.GenerateIMDB(structix.DefaultIMDB(512, 1))
	if h.NumNodes() == 0 {
		t.Fatal("empty IMDB graph")
	}
	ops := structix.MixedUpdateScript(g, 0.2, 10, 1)
	if len(ops) != 20 {
		t.Fatalf("script has %d ops", len(ops))
	}
	one := structix.BuildOneIndex(g)
	for _, op := range ops {
		var err error
		if op.Insert {
			err = one.InsertEdge(op.U, op.V, structix.IDRef)
		} else {
			err = one.DeleteEdge(op.U, op.V)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if min := structix.MinimumOneIndexSize(g); one.Size() < min {
		t.Errorf("index smaller than minimum?")
	}
	if structix.MinimumAkIndexSize(g, 2) > structix.MinimumOneIndexSize(g) {
		t.Errorf("A(2) minimum larger than 1-index minimum")
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := structix.GenerateXMark(structix.DefaultXMark(512, 1, 2))
	// The script preparation removes the pool edges from g; clone after it
	// so the clones replay from the same starting state.
	ops := structix.MixedUpdateScript(g, 0.2, 15, 2)
	p := structix.NewPropagate(structix.BuildOneIndex(g.Clone()), 0.05)
	s := structix.NewSimpleAk(g.Clone(), 2, 0.05)
	// Replay on the clones (same NodeIDs).
	for _, op := range ops {
		if op.Insert {
			if err := p.InsertEdge(op.U, op.V, structix.IDRef); err != nil {
				t.Fatal(err)
			}
			if err := s.InsertEdge(op.U, op.V, structix.IDRef); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := p.DeleteEdge(op.U, op.V); err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteEdge(op.U, op.V); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.X.Validate(); err != nil {
		t.Fatal(err)
	}
	y := structix.ReconstructOneIndex(p.X)
	if y.Size() > p.X.Size() {
		t.Errorf("reconstruction grew the index")
	}
}

func TestFacadeRoundTripXML(t *testing.T) {
	g := structix.GenerateXMark(structix.DefaultXMark(1024, 1, 3))
	var buf bytes.Buffer
	if err := structix.WriteXML(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := structix.ParseXML(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumIDRefEdges() != g.NumIDRefEdges() {
		t.Errorf("round trip changed counts: %d/%d vs %d/%d",
			g.NumNodes(), g.NumIDRefEdges(), g2.NumNodes(), g2.NumIDRefEdges())
	}
}

func TestFacadeSubgraph(t *testing.T) {
	g := structix.GenerateXMark(structix.DefaultXMark(512, 1, 4))
	one := structix.BuildOneIndex(g)
	var root structix.NodeID = structix.InvalidNode
	g.EachNode(func(v structix.NodeID) {
		if root == structix.InvalidNode && g.LabelName(v) == "open_auction" {
			root = v
		}
	})
	if root == structix.InvalidNode {
		t.Skip("no auction in tiny graph")
	}
	sg, err := one.DeleteSubgraph(root, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.AddSubgraph(sg); err != nil {
		t.Fatal(err)
	}
	if err := one.Validate(); err != nil {
		t.Fatal(err)
	}
}
