package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"structix/internal/graph"
	"structix/internal/opscript"
)

// pinnedSegmentSHA256 is the SHA-256 of the segment file the fixed script
// in appendPinnedScript produces, computed at the commit before the frame
// reader and sealer were folded into one each (PR 24). The journal is the
// replication wire format and what every existing store recovers from, so
// these bytes must never move.
const pinnedSegmentSHA256 = "045476e59479cecbcbcc311129ccbf8a9e518049fc80136eab823ef6ba3414c7"

// appendPinnedScript journals one record of every kind, covering every op
// vocabulary the encoders know.
func appendPinnedScript(t testing.TB, l *Log) {
	t.Helper()
	steps := []func() (uint64, error){
		func() (uint64, error) {
			return l.AppendEdges([]graph.EdgeOp{
				graph.InsertOp(1, 2, graph.IDRef),
				graph.DeleteOp(3, 4),
				graph.InsertOp(500, 70000, graph.Tree),
			})
		},
		func() (uint64, error) {
			return l.Append(&Record{Kind: RecScript, Script: []opscript.Op{
				{Kind: opscript.Insert, U: 1, V: 2, Edge: graph.Tree},
				{Kind: opscript.Delete, U: 2, V: 3},
				{Kind: opscript.AddNode, Label: "item", V: 7},
				{Kind: opscript.DelNode, U: 8},
				{Kind: opscript.DelSub, U: 9},
			}})
		},
		func() (uint64, error) {
			return l.Append(&Record{Kind: RecSubgraph, Sub: &SubgraphPayload{
				Labels:    []string{"a", "b"},
				Values:    []string{"", "x"},
				Edges:     [][2]int32{{0, 1}},
				EdgeKinds: []graph.EdgeKind{graph.Tree},
				CrossIn:   []graph.CrossEdge{{Outside: 3, Local: 0, Kind: graph.Tree}},
				CrossOut:  []graph.CrossEdge{{Outside: 4, Local: 1, Kind: graph.IDRef}},
			}})
		},
		func() (uint64, error) { return l.AppendEdges(nil) },
	}
	for i, step := range steps {
		if seq, err := step(); err != nil || seq != uint64(i+1) {
			t.Fatalf("step %d: seq %d, err %v", i, seq, err)
		}
	}
}

func TestSegmentBytesPinned(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendPinnedScript(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != pinnedSegmentSHA256 {
		t.Fatalf("segment bytes moved: sha256 %s, pinned %s", got, pinnedSegmentSHA256)
	}
}
