package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/gob"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/partition"
)

// pinnedSnapshotSHA256 is the SHA-256 of SaveSnapshot's output for the
// paper's Figure 2 graph under its minimum 1-index, in format version 2
// (graph columns and gap-coded blocks). Snapshot files are what Open
// recovers from and what a follower bootstraps off, so these bytes move
// only with a new format version.
const pinnedSnapshotSHA256 = "bcbd38ab34d7100dfab45add6ff908a1c976fe64c3a96fff1f7a7ee4a8e475ba"

// gob numbers a process's types in first-use order and a stream carries
// those numbers, so the wire types are numbered here, before any test
// runs, to keep the pinned bytes independent of which tests ran first.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{header{}, graph.Columns{}, partCols{}, graphDTO{}, partitionDTO{}} {
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
	}
}

// testdata/fig2-v1.sx is the same snapshot in format version 1, written
// by the last build that wrote version 1; this was that format's pin.
const pinnedSnapshotV1SHA256 = "ed37c39527430d10210e0fa645f2a043097cf02378e2d09d79e2a2e6428c14a5"

// parentDatabaseStream is SaveDatabase's output for internerOrderGraph and
// its 1-index, written by that parent commit (base64). Its label table is
// in interner order (z, b, ROOT, a — one label no node carries, the rest
// not in NodeID order), which the folded encoder no longer produces but
// the loader must keep reading.
const parentDatabaseStream = "Mn8DAQEGaGVhZGVyAf+AAAEDAQVNYWdpYwEMAAEHVmVyc2lvbgEEAAEES2luZAEMAAAAGf+AAQhzdHJ1Y3RpeAECAQhkYXRhYmFzZQADAgABAwIAAEX/gQMBAQhncmFwaERUTwH/ggABBAEGTGFiZWxzAf+EAAEEUm9vdAEEAAEKQWxsb3dMb29wcwECAAEFTm9kZXMB/4wAAAAW/4MCAQEIW11zdHJpbmcB/4QAAQwAACD/iwIBARFbXXBlcnNpc3Qubm9kZURUTwH/jAAB/4YAAD3/hQMBAQdub2RlRFRPAf+GAAEEAQVBbGl2ZQECAAEFTGFiZWwBBAABBVZhbHVlAQwAAQRTdWNjAf+KAAAAIP+JAgEBEVtdcGVyc2lzdC5lZGdlRFRPAf+KAAH/iAAAJf+HAwEBB2VkZ2VEVE8B/4gAAQIBAlRvAQQAAQRLaW5kAQYAAAAu/4IBBAF6AWIEUk9PVAFhAwMBAQEEAgEBAgAAAQEBBgIBAQQAAAEBAQIBAXYAADX/jQMBAQxwYXJ0aXRpb25EVE8B/44AAQIBB0Jsb2NrT2YB/5AAAQlOdW1CbG9ja3MBBAAAABX/jwIBAQdbXWludDMyAf+QAAEEAAAK/44BAwACBAEGAA=="

// internerOrderGraph is r → a → b over an interner that already held "z"
// and "b", so interner order and first-seen NodeID order disagree.
func internerOrderGraph(t testing.TB) *graph.Graph {
	t.Helper()
	in := graph.NewInterner()
	in.Intern("z")
	in.Intern("b")
	g := graph.NewShared(in)
	r := g.AddRoot()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.SetValue(b, "v")
	for _, e := range [][2]graph.NodeID{{r, a}, {a, b}} {
		if err := g.AddEdge(e[0], e[1], graph.Tree); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestSnapshotBytesPinned pins the version-2 bytes of the Figure 2
// snapshot, and loads both them and the checked-in version-1 bytes of the
// same snapshot back to the index they were saved from: the same
// partition as a fresh Build, under the same INodeIDs.
func TestSnapshotBytesPinned(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	x := oneindex.Build(g)
	snap := x.Freeze(g.Freeze())
	var v2, v1 bytes.Buffer
	if err := SaveSnapshot(&v2, snap); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(v2.Bytes()); got != pinnedSnapshotSHA256 {
		t.Fatalf("snapshot bytes moved: sha256 %s, pinned %s", got, pinnedSnapshotSHA256)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "fig2-v1.sx"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(fixture); got != pinnedSnapshotV1SHA256 {
		t.Fatalf("version-1 fixture changed: sha256 %s, pinned %s", got, pinnedSnapshotV1SHA256)
	}
	if err := saveSnapshotV1(&v1, snap); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"v1 fixture": fixture, "v1": v1.Bytes(), "v2": v2.Bytes()} {
		db, err := LoadDatabase(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !partition.Equal(db.One.ToPartition(), x.ToPartition()) {
			t.Fatalf("%s: loaded partition differs from Build's", name)
		}
		g.EachNode(func(v graph.NodeID) {
			if db.One.INodeOf(v) != x.INodeOf(v) {
				t.Fatalf("%s: dnode %d in inode %d, built in %d", name, v, db.One.INodeOf(v), x.INodeOf(v))
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestParentDatabaseStreamLoads(t *testing.T) {
	raw, err := base64.StdEncoding.DecodeString(parentDatabaseStream)
	if err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("a stream the parent commit wrote no longer loads: %v", err)
	}
	g := internerOrderGraph(t)
	if db.One == nil || db.Ak != nil || db.Graph.NumNodes() != g.NumNodes() || db.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("loaded One=%v Ak=%v, %d nodes, %d edges", db.One != nil, db.Ak != nil, db.Graph.NumNodes(), db.Graph.NumEdges())
	}
	for _, v := range g.Nodes() {
		if db.Graph.LabelName(v) != g.LabelName(v) || db.Graph.Value(v) != g.Value(v) {
			t.Fatalf("node %d: label %q value %q, want %q %q", v, db.Graph.LabelName(v), db.Graph.Value(v), g.LabelName(v), g.Value(v))
		}
	}
	if !partition.Equal(db.One.ToPartition(), oneindex.Build(g).ToPartition()) {
		t.Fatal("partition changed")
	}
}
