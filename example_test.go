package structix_test

import (
	"fmt"

	"structix"
)

// Parse a document, build the 1-index, and query a snapshot of it.
func ExampleBuildOneIndex() {
	g, _ := structix.ParseXMLString(`
		<site>
		  <person><name>Alice</name></person>
		  <person><name>Bob</name></person>
		</site>`)
	idx := structix.BuildOneIndex(g)
	fmt.Println("dnodes:", g.NumNodes())
	fmt.Println("inodes:", idx.Size())
	s := idx.Freeze(g.Freeze())
	fmt.Println("results:", len(structix.EvalSnapshot(structix.MustParsePath("//person/name"), s)))
	// Output:
	// dnodes: 6
	// inodes: 4
	// results: 2
}

// Incremental maintenance: the index follows an edge update and stays
// minimal — on acyclic data, exactly minimum.
func ExampleOneIndex_InsertEdge() {
	g, _ := structix.ParseXMLString(`
		<site>
		  <person id="p1"/>
		  <auction id="a1"/>
		</site>`)
	idx := structix.BuildOneIndex(g)
	var person, auction structix.NodeID
	g.EachNode(func(v structix.NodeID) {
		switch g.LabelName(v) {
		case "person":
			person = v
		case "auction":
			auction = v
		}
	})
	before := idx.Size()
	if err := idx.InsertEdge(person, auction, structix.IDRef); err != nil {
		panic(err)
	}
	fmt.Println("size:", before, "->", idx.Size())
	fmt.Println("minimal:", idx.IsMinimal())
	// Output:
	// size: 4 -> 4
	// minimal: true
}

// Path expressions support wildcards, descendant steps and predicates.
func ExampleParsePath() {
	p, err := structix.ParsePath(`//person[name='Alice']/age`)
	fmt.Println(p, err)
	_, err = structix.ParsePath(`//person[`)
	fmt.Println(err != nil)
	// Output:
	// //person[name='Alice']/age <nil>
	// true
}

// The planner explains which snapshot answers a query cheapest.
func ExamplePlanner() {
	g, _ := structix.ParseXMLString(`
		<site>
		  <person><name>Alice</name></person>
		  <person><name>Bob</name></person>
		</site>`)
	data := g.Freeze() // one read point for both snapshots
	pl := &structix.Planner{
		Data: data,
		One:  structix.BuildOneIndex(g).Freeze(data),
		Ak:   structix.BuildAkIndex(g, 3).Freeze(data),
	}
	res, plan := pl.Eval(structix.MustParsePath("/site/person/name"))
	fmt.Println("results:", len(res))
	fmt.Println("strategy:", plan.Strategy)
	// Output:
	// results: 2
	// strategy: ak-level
}

// An A(k) snapshot answers long queries with validation; its raw
// candidates are a safe superset.
func ExampleCompiledPath_Candidates() {
	// The two <page> nodes are 1-bisimilar (both have a <book> parent) but
	// only one lies under <fiction>: with k=1 the raw answer overshoots.
	g, _ := structix.ParseXMLString(`
		<lib>
		  <fiction><book><page/></book></fiction>
		  <science><book><page/></book></science>
		</lib>`)
	s := structix.BuildAkIndex(g, 1).Freeze(g.Freeze())
	c := structix.CompilePath(structix.MustParsePath("/lib/fiction/book/page"))
	validated, _ := c.Eval(nil, nil, nil, s)
	fmt.Println("raw:", len(c.Candidates(s)))
	fmt.Println("validated:", len(validated))
	// Output:
	// raw: 2
	// validated: 1
}
