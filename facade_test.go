package structix_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"structix"
	"structix/internal/workload"
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

// The §7.1 generators' draw sequences are pinned: the experiments' goldens
// and every replayed script depend on them, so a changed digest is a
// changed workload, not a refactor.
func TestWorkloadDigestsPinned(t *testing.T) {
	want := map[string]string{
		"mixed/c0":    "2de188681b32037ed62ff4b0445d3b021d163cabd197dd3910ec4f59d42f298a",
		"mixed/c1":    "0a488d622ee6cfd54aa497fc7556c9885df2f4b6c7ae1c67523c350cbef93e33",
		"skewed/c0":   "63f22c8242372c793846dc7ec630f100ab470c06a8d6ca6b6651994fc611f31c",
		"skewed/c1":   "00fcd776075de2fa4f1e7fcc6f84a0d27953a73a7831b359f5fd819b1ba0bdf5",
		"generate/c0": "48c172c9c9db291d932fd5969236a0e158990929ab8f6d32d7f03772ea1da630",
		"generate/c1": "15b141ad8a0515313b30538fc83dee156d91e557e9b226997387c5b4becd4a32",
	}
	for c, cyc := range []float64{0, 1} {
		g := structix.GenerateXMark(structix.DefaultXMark(64, cyc, 3))
		var mixed, skewed, gen bytes.Buffer
		for _, op := range structix.MixedUpdateScript(g.Clone(), 0.2, 500, 9) {
			fmt.Fprintf(&mixed, "%v %d %d\n", op.Insert, op.U, op.V)
		}
		for _, op := range workload.SkewedScript(g.Clone(), 0.2, 0.05, 500, 9) {
			fmt.Fprintf(&skewed, "%v %d %d\n", op.Insert, op.U, op.V)
		}
		if err := structix.FormatOps(&gen, structix.GenerateMixedOps(g, 400, 17)); err != nil {
			t.Fatal(err)
		}
		for name, buf := range map[string][]byte{"mixed": mixed.Bytes(), "skewed": skewed.Bytes(), "generate": gen.Bytes()} {
			key := fmt.Sprintf("%s/c%d", name, c)
			if sum := sha256.Sum256(buf); hex.EncodeToString(sum[:]) != want[key] {
				t.Errorf("%s: digest %x, want %s", key, sum, want[key])
			}
		}
	}
}

func TestFacadeOpsRoundTrip(t *testing.T) {
	g := structix.GenerateXMark(structix.DefaultXMark(512, 1, 10))
	ops := structix.GenerateMixedOps(g, 10, 10)
	if ops[0].Kind != structix.ScriptDelete || ops[1].Kind != structix.ScriptInsert || ops[1].Edge != structix.IDRef {
		t.Errorf("in-place script must open with a delete and an IDREF insert: %v %v", ops[0], ops[1])
	}
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
