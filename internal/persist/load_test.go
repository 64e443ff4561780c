package persist

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
)

// TestVersionsLoadIdentical saves one churned state — IDREF inserts and a
// deleted subtree, so the id space has dead slots — as a version-1 and a
// version-2 snapshot and loads both: every dnode in the same inode, both
// indexes valid (so their iedge counts are the dedges'), and the two
// loaded snapshots equal.
func TestVersionsLoadIdentical(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(128, 1, 3))
	x := oneindex.Build(g)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		if u, v, ok := gtest.RandomNonEdge(rng, g); ok {
			if err := x.InsertEdge(u, v, graph.IDRef); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := x.DeleteSubgraph(g.Nodes()[g.NumNodes()/3], true); err != nil {
		t.Fatal(err)
	}
	snap := x.Freeze(g.Freeze())
	var v1, v2 bytes.Buffer
	if err := saveSnapshotV1(&v1, snap); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(&v2, snap); err != nil {
		t.Fatal(err)
	}
	var dbs [2]*Database
	for i, raw := range [][]byte{v1.Bytes(), v2.Bytes()} {
		db, err := LoadDatabase(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("v%d: %v", i+1, err)
		}
		if err := db.Graph.Validate(); err != nil {
			t.Fatalf("v%d graph: %v", i+1, err)
		}
		if err := db.One.Validate(); err != nil {
			t.Fatalf("v%d index: %v", i+1, err)
		}
		dbs[i] = db
	}
	g.EachNode(func(v graph.NodeID) {
		if a, b := dbs[0].One.INodeOf(v), dbs[1].One.INodeOf(v); a != b {
			t.Fatalf("dnode %d: inode %d from v1, %d from v2", v, a, b)
		}
	})
	if d := gtest.SnapshotDiff(dbs[0].One.Freeze(dbs[0].Graph.Freeze()), dbs[1].One.Freeze(dbs[1].Graph.Freeze())); d != "" {
		t.Fatalf("v1 and v2 loads differ: %s", d)
	}
	if v2.Len() >= v1.Len() {
		t.Errorf("v2 stream %d bytes, v1 %d", v2.Len(), v1.Len())
	}
}

// defect is a damaged database stream and a part of the error it must
// load to.
type defect struct {
	name, want string
	raw        []byte
}

// defectStreams are damaged database streams, each refused before
// anything is built. The version-1 ones are what the builds that wrote
// version 1 failed on: a panic, the process's death, or no error at all.
func defectStreams(t testing.TB) []defect {
	// A 2-node graph (r → a) as version-1 and version-2 parts.
	v1Graph := func(to int32) *graphDTO {
		return &graphDTO{Labels: []string{"ROOT", "a"}, Nodes: []nodeDTO{
			{Alive: true, Succ: []edgeDTO{{To: to}}}, {Alive: true, Label: 1}}}
	}
	v2Graph := func(to graph.NodeID) *graph.Columns {
		return &graph.Columns{Labels: []string{"ROOT", "a"}, Label: []uint32{1, 2}, Value: []string{"", ""},
			OutDeg: []uint32{1, 0}, Edges: []int64{graph.EdgeCode(0, to, graph.Tree)}}
	}
	// r → a, r → b, with a and b in one block.
	impure1 := &graphDTO{Labels: []string{"ROOT", "a", "b"}, Nodes: []nodeDTO{
		{Alive: true, Succ: []edgeDTO{{To: 1}, {To: 2}}}, {Alive: true, Label: 1}, {Alive: true, Label: 2}}}
	impure2 := &graph.Columns{Labels: []string{"ROOT", "a", "b"}, Label: []uint32{1, 2, 3}, Value: []string{"", "", ""},
		OutDeg: []uint32{2, 0, 0}, Edges: []int64{graph.EdgeCode(0, 1, graph.Tree), graph.EdgeCode(0, 2, graph.Tree)}}
	stream := func(encode func(io.Writer, string, ...any) error, parts ...any) []byte {
		var buf bytes.Buffer
		if err := encode(&buf, "database", parts...); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return []defect{
		{"v1 edge to node 99", "invalid or deleted node", stream(encodeV1, false, false, v1Graph(99))},
		{"v1 edge to node -5", "invalid or deleted node", stream(encodeV1, false, false, v1Graph(-5))},
		{"v2 edge to node 99", "invalid or deleted node", stream(encodeStream, false, false, v2Graph(99))},
		{"v2 edge to node -5", "invalid or deleted node", stream(encodeStream, false, false, v2Graph(-5))},
		{"v1 2^30 blocks", "blocks over", stream(encodeV1, true, false, v1Graph(1), &partitionDTO{BlockOf: []int32{0, 1}, NumBlocks: 1 << 30})},
		{"v2 block of 2^30", "size", stream(encodeStream, true, false, v2Graph(1), &partCols{Sizes: []uint32{1 << 30}, Members: []uint32{1, 1}})},
		{"v1 label-impure block", "label-pure", stream(encodeV1, true, false, impure1, &partitionDTO{BlockOf: []int32{0, 1, 1}, NumBlocks: 2})},
		{"v2 label-impure block", "label-pure", stream(encodeStream, true, false, impure2, &partCols{Sizes: []uint32{1, 2}, Members: []uint32{1, 2, 1}})},
	}
}

// TestLoaderDefects loads each damaged stream: an error naming the
// defect, never a panic or a loaded database.
func TestLoaderDefects(t *testing.T) {
	for _, c := range defectStreams(t) {
		t.Run(c.name, func(t *testing.T) {
			db, err := LoadDatabaseAuto(bytes.NewReader(c.raw))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("loaded %v, error %v; want one containing %q", db != nil, err, c.want)
			}
		})
	}
	// The same edges in graph streams.
	for _, to := range []int32{99, -5} {
		var buf bytes.Buffer
		g := &graphDTO{Labels: []string{"ROOT", "a"}, Nodes: []nodeDTO{{Alive: true, Succ: []edgeDTO{{To: to}}}, {Alive: true, Label: 1}}}
		if err := encodeV1(&buf, "graph", g); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadGraph(&buf); err == nil || !strings.Contains(err.Error(), "invalid or deleted node") {
			t.Fatalf("graph stream with an edge to %d: %v", to, err)
		}
	}
}

// TestUnstablePartitionRefused loads a label-pure partition that is not
// self-stable — Figure 2's index with two inodes' members of one label
// swapped — and gets an error, not an index that answers queries wrongly.
func TestUnstablePartitionRefused(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	p := oneindex.Build(g).ToPartition()
	blocks := p.Blocks()
	swapped := false
	for i := range blocks {
		for j := i + 1; j < len(blocks) && !swapped; j++ {
			a, b := blocks[i][0], blocks[j][0]
			if g.Label(a) == g.Label(b) {
				p.SetBlock(a, int32(j))
				p.SetBlock(b, int32(i))
				swapped = true
			}
		}
	}
	if !swapped {
		t.Fatal("no two inodes of one label")
	}
	var buf bytes.Buffer
	if err := encodeStream(&buf, "database", true, false, g.Columns(), new(partCols).add(p.Blocks()...)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDatabase(&buf); err == nil || !strings.Contains(err.Error(), "self-stable") {
		t.Fatalf("unstable partition loaded: %v", err)
	}
}

// FuzzLoadDatabase: any input either fails to load or loads to a
// database whose graph and 1-index validate, never panics, and allocates
// at most a small multiple of the stream it decodes (the gunzipped bytes,
// for a gzip input) plus gob's fixed read chunk.
func FuzzLoadDatabase(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "fig2-v1.sx"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	g, _, _, _ := gtest.Fig2()
	snap := oneindex.Build(g).Freeze(g.Freeze())
	var v2, packed bytes.Buffer
	if err := SaveSnapshot(&v2, snap); err != nil {
		f.Fatal(err)
	}
	if err := SaveSnapshotCompressed(&packed, snap); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(packed.Bytes())
	for _, c := range defectStreams(f) {
		f.Add(c.raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		plain := len(data)
		if zr, err := gzip.NewReader(bytes.NewReader(data)); err == nil {
			n, _ := io.Copy(io.Discard, io.LimitReader(zr, 64<<20))
			plain = int(n)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := LoadDatabaseAuto(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*plain+32<<20); grew > limit {
			t.Fatalf("allocated %d bytes loading a %d-byte stream (limit %d)", grew, plain, limit)
		}
		if err != nil {
			return
		}
		if err := db.Graph.Validate(); err != nil {
			t.Fatalf("loaded graph invalid: %v", err)
		}
		if db.One != nil {
			if err := db.One.Validate(); err != nil {
				t.Fatalf("loaded 1-index invalid: %v", err)
			}
		}
	})
}
