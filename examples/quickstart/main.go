// Quickstart: parse an XML document, build a 1-index, run path queries
// through it, and watch the index stay minimal under updates.
package main

import (
	"fmt"
	"log"

	"structix"
)

const doc = `
<site>
  <people>
    <person id="p1"><name>Alice</name></person>
    <person id="p2"><name>Bob</name></person>
    <person id="p3"><name>Carol</name></person>
  </people>
  <open_auctions>
    <open_auction id="a1"><seller idref="p1"/><current>17</current></open_auction>
    <open_auction id="a2"><seller idref="p2"/><current>42</current></open_auction>
  </open_auctions>
</site>`

func main() {
	g, err := structix.ParseXMLString(doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d dnodes, %d dedges (%d IDREF)\n",
		g.NumNodes(), g.NumEdges(), g.NumIDRefEdges())

	// Build the minimum 1-index: bisimilar nodes share an index node, so
	// the three persons collapse into one inode, the two auctions into
	// another.
	idx := structix.BuildOneIndex(g)
	fmt.Printf("1-index: %d inodes for %d dnodes\n", idx.Size(), g.NumNodes())

	// Path queries run on an immutable snapshot of the index graph and
	// read whole extents — no document scan. The 1-index is precise: no
	// false positives.
	s := idx.Freeze(g.Freeze())
	for _, expr := range []string{"//person/name", "//open_auction/seller/person"} {
		p := structix.MustParsePath(expr)
		fmt.Printf("%-35s -> %d results\n", expr, len(structix.EvalSnapshot(p, s)))
	}

	// Update the document: Carol starts watching auction a2. The index is
	// maintained incrementally — and stays *minimal* (Lemma 3), so query
	// performance does not decay as updates accumulate.
	carol := findPersonWithout(g)
	auction := lastAuction(g)
	if err := idx.InsertEdge(carol, auction, structix.IDRef); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after update: %d inodes, minimal=%v, quality=%.0f%%\n",
		idx.Size(), idx.IsMinimal(), 100*idx.Quality())

	// Undo it; on acyclic data the index returns to the exact minimum.
	if err := idx.DeleteEdge(carol, auction); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after undo:   %d inodes, quality=%.0f%%\n", idx.Size(), 100*idx.Quality())
}

func findPersonWithout(g *structix.Graph) structix.NodeID {
	var found structix.NodeID = structix.InvalidNode
	g.EachNode(func(v structix.NodeID) {
		if g.LabelName(v) != "person" {
			return
		}
		refs := 0
		g.EachPred(v, func(_ structix.NodeID, k structix.EdgeKind) {
			if k == structix.IDRef {
				refs++
			}
		})
		if refs == 0 {
			found = v
		}
	})
	return found
}

func lastAuction(g *structix.Graph) structix.NodeID {
	var found structix.NodeID = structix.InvalidNode
	g.EachNode(func(v structix.NodeID) {
		if g.LabelName(v) == "open_auction" {
			found = v
		}
	})
	return found
}
