package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
)

type namedGraph struct {
	name string
	g    *graph.Graph
}

// pinCorpus is TestEnginePinned's fixed input set: seeded random DAGs and
// cyclic graphs (two with deleted nodes, one with self-loops) and the
// xmark d64 graph without and with IDREF cycles.
func pinCorpus() []namedGraph {
	withDead := func(g *graph.Graph, rng *rand.Rand, n int) *graph.Graph {
		nodes := g.Nodes()
		for removed := 0; removed < n; {
			if v := nodes[rng.Intn(len(nodes))]; v != g.Root() && g.Alive(v) {
				g.RemoveNode(v)
				removed++
			}
		}
		return g
	}
	withLoops := func(g *graph.Graph, rng *rand.Rand, n int) *graph.Graph {
		g.SetAllowSelfLoops(true)
		nodes := g.Nodes()
		for i := 0; i < n; i++ {
			v := nodes[rng.Intn(len(nodes))]
			_ = g.AddEdge(v, v, graph.IDRef)
		}
		return g
	}
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	return []namedGraph{
		{"dag200", gtest.RandomDAG(rng(1), 200, 80)},
		{"cyclic200", gtest.RandomCyclic(rng(2), 200, 150)},
		{"cyclic2k", gtest.RandomCyclic(rng(3), 2000, 1500)},
		{"dag150-dead", withDead(gtest.RandomDAG(rng(4), 150, 60), rng(40), 20)},
		{"cyclic300-dead", withDead(gtest.RandomCyclic(rng(5), 300, 250), rng(50), 30)},
		{"cyclic120-loops", withLoops(gtest.RandomCyclic(rng(6), 120, 80), rng(60), 15)},
		{"xmark-d64-c0", datagen.XMark(datagen.DefaultXMark(64, 0, 1))},
		{"xmark-d64-c1", datagen.XMark(datagen.DefaultXMark(64, 1, 1))},
	}
}

// byLabelAndResidue is a non-label initial partition: live nodes grouped
// by (label, id mod 3), with sparse block ids that leave empty blocks.
func byLabelAndResidue(g *graph.Graph) *Partition {
	p := NewPartition(g.MaxNodeID())
	nb := 0
	g.EachNode(func(v graph.NodeID) {
		b := 3*int(g.Label(v)) + int(v)%3
		p.SetBlock(v, int32(b))
		nb = max(nb, b+1)
	})
	p.SetNumBlocks(nb)
	return p
}

func hashPartition(h hash.Hash, p *Partition) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(p.NumBlocks()))
	h.Write(buf[:])
	for v := 0; v < p.Len(); v++ {
		binary.LittleEndian.PutUint32(buf[:], uint32(p.Block(graph.NodeID(v))))
		h.Write(buf[:])
	}
}

// TestEnginePinned pins the exact block ids both construction jobs return
// over pinCorpus: SHA-256 of CoarsestStable under the label partition and
// under byLabelAndResidue ("stable"), and of every level of KBisimLevels
// for k = 0, 1, 3 and 7 ("kbisim"). The digests were recorded with the
// worklist refiner and the full-pass k-bisimulation step that the
// signature-refinement engine replaced: if one moves, a caller sees
// different inode or level-block ids.
func TestEnginePinned(t *testing.T) {
	want := map[string][2]string{
		"dag200": {
			"54dbbc5929122692342b5410fb9c4288c028f881e4538516c4f8a74eeca5ecb8",
			"544537197638b26148b889d7374cec2ea2fa51f23e63db448733a6bcdb629282"},
		"cyclic200": {
			"3625ad91c1e1859922cf0a711dec5e21a6d826b6963b1e7cce10f6620ac4a072",
			"886fe1aead2f95c024cf15c7949e29e8a0fa79f827590cf8f8c9576b7e8dc089"},
		"cyclic2k": {
			"67a91b0754b4a8659e6975bb27bb6e303fcc5db7138b9541147f506380af12d6",
			"db7b11c2ca999711310096dd6d3dc9202b7805014ecde0ae66283a365009abf1"},
		"dag150-dead": {
			"bd72a526608907e1dd955a098350c9e37599a238040aa9a68838db6211abc6c7",
			"5acf1bc15923c1809c38a5bd2915f0b72a0c9595842042d8aac5a71f763dcca0"},
		"cyclic300-dead": {
			"73568d6463472290994b8cce611047c4c5396f3b8248e6edaee911995559bc6a",
			"fc4a47025fafe2b6490eb97751e3b260329362ae5a50400670843e523cf0f1d9"},
		"cyclic120-loops": {
			"db955bbb2d4740879449501f9aab38005d737e54128331ea24c952af65326e9a",
			"d0b0144b762c60daa0ba3abc719cd3a4b09bd7f1c24bfb775dd7b5781d57da29"},
		"xmark-d64-c0": {
			"33aa51044413f77fc9f12a61fe762c73a116688650e50edc6ab0e4bbf16d3ad2",
			"dedcf302587020aa84c120bf9062570eb0db1325754a36911d80a2148b2c23f3"},
		"xmark-d64-c1": {
			"2f14e9e26328858fe03c2bb76c0f015ea0323f0a452e1213c70511ee6ddf9ac0",
			"3f5301f17eb460ba3b00f1ad2491d58aed494f856779d6aeb65c31d7c27268b9"},
	}
	for _, tc := range pinCorpus() {
		hs := sha256.New()
		hashPartition(hs, CoarsestStable(tc.g, ByLabel(tc.g)))
		hashPartition(hs, CoarsestStable(tc.g, byLabelAndResidue(tc.g)))
		hk := sha256.New()
		for _, k := range []int{0, 1, 3, 7} {
			for _, p := range KBisimLevels(tc.g, k) {
				hashPartition(hk, p)
			}
		}
		got := [2]string{hex.EncodeToString(hs.Sum(nil)), hex.EncodeToString(hk.Sum(nil))}
		if got != want[tc.name] {
			t.Errorf("%s: digests moved\n stable %s\n kbisim %s", tc.name, got[0], got[1])
		}
	}
}
