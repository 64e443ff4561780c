package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"structix"
	"structix/internal/datagen"
	"structix/internal/graph"
)

// The dataset ladder. Every dataset is datagen XMark at cyclicity 1, so
// the IDREF cycle structure — what split/merge maintenance is sensitive
// to — is the same at every size; only the size changes.
//
//	xmark-d8  DefaultXMark(8)  ≈  36k nodes /  18k inodes
//	xmark-f1  XMarkFactor(1)   ≈ 289k nodes / 135k inodes
//	xmark-f2  XMarkFactor(2)   ≈ 578k nodes / 266k inodes
//
// smokeDiv > 0 replaces every rung by DefaultXMark(smokeDiv): the shape of
// the run without its cost, for the package's smoke test.
func xmarkConfig(name string, seed int64, smokeDiv int) (datagen.XMarkConfig, error) {
	if smokeDiv > 0 {
		return datagen.DefaultXMark(smokeDiv, 1, seed), nil
	}
	switch name {
	case "xmark-d8":
		return datagen.DefaultXMark(8, 1, seed), nil
	case "xmark-f1":
		return datagen.XMarkFactor(1, 1, seed), nil
	case "xmark-f2":
		return datagen.XMarkFactor(2, 1, seed), nil
	}
	return datagen.XMarkConfig{}, fmt.Errorf("unknown dataset %q", name)
}

// dataset is the bench's own copy of what the server was bootstrapped
// from: the graph (the oracle every drain check evaluates against), the
// SaveDatabase file handed to xsiserve -load, and the entity lists the
// op pools draw from.
type dataset struct {
	name     string
	g        *graph.Graph
	file     string
	persons  []graph.NodeID
	auctions []graph.NodeID
	genS     float64 // generate + save, seconds
}

func makeDataset(name string, seed int64, smokeDiv int, dir string) (*dataset, error) {
	cfg, err := xmarkConfig(name, seed, smokeDiv)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	g := datagen.XMark(cfg)
	ds := &dataset{name: name, g: g, file: filepath.Join(dir, name+".sx")}
	f, err := os.Create(ds.file)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	if err := structix.SaveDatabase(bw, &structix.Database{Graph: g}); err != nil {
		f.Close()
		return nil, fmt.Errorf("saving %s: %w", name, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	ds.genS = time.Since(start).Seconds()
	g.EachNode(func(v graph.NodeID) {
		switch g.LabelName(v) {
		case "person":
			ds.persons = append(ds.persons, v)
		case "open_auction":
			ds.auctions = append(ds.auctions, v)
		}
	})
	if len(ds.persons) == 0 || len(ds.auctions) == 0 {
		return nil, fmt.Errorf("dataset %s has no persons or no open auctions", name)
	}
	return ds, nil
}

// edge is one person→open_auction IDREF edge absent from the generated
// graph: persons reference auctions only through watches/watch, so a
// direct edge is new to every dataset, and inserting one gives its
// auction a second kind of parent — the split the paper's update
// workload is about.
type edge [2]graph.NodeID

// edgePools draws n disjoint pools of batches×batchOps distinct absent
// edges. Disjoint pools mean concurrent writers can never invalidate each
// other's batches, however the group commits interleave: no operation of
// any workload can fail.
func (ds *dataset) edgePools(rng *rand.Rand, n, batches int) ([][]edge, error) {
	want := n * batches * batchOps
	if max := len(ds.persons) * len(ds.auctions) / 2; want > max {
		return nil, fmt.Errorf("dataset %s too small for %d pool edges", ds.name, want)
	}
	seen := make(map[edge]bool, want)
	all := make([]edge, 0, want)
	for len(all) < want {
		e := edge{ds.persons[rng.Intn(len(ds.persons))], ds.auctions[rng.Intn(len(ds.auctions))]}
		if seen[e] || ds.g.HasEdge(e[0], e[1]) {
			continue
		}
		seen[e] = true
		all = append(all, e)
	}
	pools := make([][]edge, n)
	per := batches * batchOps
	for i := range pools {
		pools[i] = all[i*per : (i+1)*per]
	}
	return pools, nil
}

// hotExprs is read_hot's fixed working set: six expressions, far below
// the 1024-entry result cache, one per shape the language has.
var hotExprs = []string{
	"//person/name",
	"/site/people/person",
	"//open_auction//person",
	"/site/regions/*/item/name",
	"//closed_auction/price",
	"/site/open_auctions/open_auction/bidder",
}

// probeExprs are evaluated on the server and on the bench's own graph at
// every drain and after every recovery. Two of them match only through
// the person→open_auction edges the writers insert, so a lost or
// duplicated write changes a count.
var probeExprs = []string{
	"/site/people/person",
	"//person/open_auction",
	"//person/open_auction/bidder/personref/person",
	"//watch/open_auction/seller",
	"/site/open_auctions/open_auction/*",
	"//open_auction//person/name",
	"/site/regions/*/item",
	"//closed_auction/buyer/person",
}

// exprClasses is the repeating pattern of expression shapes in a pool:
// of every 20 consecutive expressions 3 are child-only ('c'), 4 have one
// // and 13 have one *. A fixed pattern instead of a coin per expression
// keeps the mix — and with it the cost of a pass over the pool — the same
// under every seed and on every prefix of the pool. The shares are what
// the data allows: XMark's schema has only ≈300 distinct child-only label
// paths of depth ≤ 8 (≈390 of depth ≤ 10), far fewer than a pool larger
// than the result cache needs, so wildcards carry the count; and a //
// step walks the whole index (≈16 ms on xmark-f1 against ≈1 ms for the
// other two shapes), so at a fifth of the requests it is already four
// fifths of the evaluation time.
const exprClasses = "*/*c*/**c*/**c*/****"

// exprPool derives n distinct expressions from label paths that exist in
// the dataset: a random walk from the root (over tree and IDREF edges,
// as evaluation does) witnesses a child-only path, and replacing a run of
// its steps by // or one step by * keeps the witness, so every
// expression has a non-empty answer by construction.
func (ds *dataset) exprPool(rng *rand.Rand, n int) ([]string, error) {
	g := ds.g
	seen := make(map[string]bool, n)
	pool := make([]string, 0, n)
	var labels []string
	for tries := 0; len(pool) < n; tries++ {
		if tries > 200*n {
			return nil, fmt.Errorf("dataset %s yields only %d distinct label-path expressions, want %d", ds.name, len(pool), n)
		}
		depth := 2 + rng.Intn(9)
		labels = labels[:0]
		v := g.Root()
		for len(labels) < depth {
			succ := g.Succ(v)
			if len(succ) == 0 {
				break
			}
			v = succ[rng.Intn(len(succ))]
			labels = append(labels, g.LabelName(v))
		}
		if len(labels) < 2 {
			continue
		}
		var b strings.Builder
		switch exprClasses[len(pool)%len(exprClasses)] {
		case 'c':
			for _, l := range labels {
				b.WriteString("/" + l)
			}
		case '/':
			// Drop steps [i, j) and reach step j by a descendant step.
			j := 1 + rng.Intn(len(labels)-1)
			i := rng.Intn(j)
			for _, l := range labels[:i] {
				b.WriteString("/" + l)
			}
			b.WriteString("//" + labels[j])
			for _, l := range labels[j+1:] {
				b.WriteString("/" + l)
			}
		case '*':
			w := rng.Intn(len(labels) - 1) // never the last step: keep the answer one label
			for i, l := range labels {
				if i == w {
					l = "*"
				}
				b.WriteString("/" + l)
			}
		}
		if e := b.String(); !seen[e] {
			seen[e] = true
			pool = append(pool, e)
		}
	}
	return pool, nil
}
