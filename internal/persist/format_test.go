package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"testing"

	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/partition"
)

// pinnedSnapshotSHA256 is the SHA-256 of SaveSnapshot's output for the
// paper's Figure 2 graph under its minimum 1-index, computed at the commit
// before the live and frozen encoders were folded into one (PR 24).
// Snapshot files are what Open recovers from and what a follower
// bootstraps off, so these bytes must never move.
const pinnedSnapshotSHA256 = "ed37c39527430d10210e0fa645f2a043097cf02378e2d09d79e2a2e6428c14a5"

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

func TestSnapshotBytesPinned(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, oneindex.Build(g).Freeze(g.Freeze())); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != pinnedSnapshotSHA256 {
		t.Fatalf("snapshot bytes moved: sha256 %s, pinned %s", got, pinnedSnapshotSHA256)
	}
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
