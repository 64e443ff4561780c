package wal

import (
	"errors"
	"testing"

	"structix/internal/graph"
	"structix/internal/opscript"
)

func collect(t *testing.T, l *Log, from uint64) []*Record {
	t.Helper()
	var recs []*Record
	if err := l.Replay(from, func(r *Record) error {
		// Replay reuses nothing, but copy defensively anyway.
		cp := *r
		recs = append(recs, &cp)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.EdgeOp{
		graph.InsertOp(1, 2, graph.IDRef),
		graph.DeleteOp(3, 4),
		graph.InsertOp(5, 6, graph.Tree),
	}
	script := []opscript.Op{
		{Kind: opscript.Insert, U: 1, V: 2, Edge: graph.Tree},
		{Kind: opscript.Delete, U: 2, V: 3},
		{Kind: opscript.AddNode, Label: "item", V: 7},
		{Kind: opscript.DelNode, U: 8},
		{Kind: opscript.DelSub, U: 9},
	}
	sub := &SubgraphPayload{
		Labels:    []string{"a", "b"},
		Values:    []string{"", "x"},
		Edges:     [][2]int32{{0, 1}},
		EdgeKinds: []graph.EdgeKind{graph.Tree},
		CrossIn:   []graph.CrossEdge{{Outside: 3, Local: 0, Kind: graph.Tree}},
		CrossOut:  []graph.CrossEdge{{Outside: 4, Local: 1, Kind: graph.IDRef}},
	}
	if _, err := l.AppendEdges(edges); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Kind: RecScript, Script: script}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Kind: RecSubgraph, Sub: sub}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextSeq(); got != 4 {
		t.Fatalf("NextSeq after reopen = %d, want 4", got)
	}
	recs := collect(t, l2, 1)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[0].Kind.String() != "edges" || len(recs[0].Edges) != 3 {
		t.Fatalf("record 1 = %+v", recs[0])
	}
	for i, op := range recs[0].Edges {
		if op != edges[i] {
			t.Fatalf("edge %d round trip: got %+v want %+v", i, op, edges[i])
		}
	}
	if len(recs[1].Script) != len(script) {
		t.Fatalf("script round trip: %d ops, want %d", len(recs[1].Script), len(script))
	}
	for i, op := range recs[1].Script {
		if op != script[i] {
			t.Fatalf("script op %d: got %+v want %+v", i, op, script[i])
		}
	}
	got := recs[2].Sub
	if got == nil || len(got.Labels) != 2 || got.Labels[1] != "b" || got.Values[1] != "x" ||
		len(got.Edges) != 1 || got.Edges[0] != [2]int32{0, 1} ||
		len(got.CrossIn) != 1 || got.CrossIn[0].Outside != 3 ||
		len(got.CrossOut) != 1 || got.CrossOut[0].Kind != graph.IDRef {
		t.Fatalf("subgraph round trip: %+v", got)
	}
}

func TestReplayFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.AppendEdges([]graph.EdgeOp{graph.InsertOp(graph.NodeID(i), graph.NodeID(i+1), graph.IDRef)}); err != nil {
			t.Fatal(err)
		}
	}
	recs := collect(t, l, 7)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records from seq 7, want 4", len(recs))
	}
	if recs[0].Seq != 7 || recs[3].Seq != 10 {
		t.Fatalf("replay range [%d,%d], want [7,10]", recs[0].Seq, recs[3].Seq)
	}
}

func TestSegmentRollAndRemoveBelow(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.AppendEdges([]graph.EdgeOp{graph.InsertOp(graph.NodeID(i), graph.NodeID(i+1), graph.IDRef)}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("want >=3 segments, got %d", st.Segments)
	}
	if err := l.RemoveBelow(30); err != nil {
		t.Fatal(err)
	}
	// History below the oldest retained segment is gone: replaying from
	// seq 1 must fail loudly, not silently stream the surviving tail.
	if err := l.Replay(1, func(*Record) error { return nil }); !errors.Is(err, ErrGap) {
		t.Fatalf("Replay(1) after RemoveBelow: err = %v, want ErrGap", err)
	}
	recs := collect(t, l, 30)
	if len(recs) == 0 || recs[len(recs)-1].Seq != 40 {
		t.Fatalf("replay after RemoveBelow: %d records", len(recs))
	}
	// Everything >= 30 must have survived compaction.
	seen := map[uint64]bool{}
	for _, r := range recs {
		seen[r.Seq] = true
	}
	for s := uint64(30); s <= 40; s++ {
		if !seen[s] {
			t.Fatalf("seq %d lost by RemoveBelow", s)
		}
	}
	if got := l.Stats().Segments; got >= st.Segments {
		t.Fatalf("RemoveBelow removed nothing: %d -> %d segments", st.Segments, got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen continues the sequence after compaction.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextSeq(); got != 41 {
		t.Fatalf("NextSeq after compaction+reopen = %d, want 41", got)
	}
}

func TestFirstSeqSeedsEmptyDir(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FirstSeq: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 100 {
		t.Fatalf("NextSeq = %d, want 100", got)
	}
	if _, err := l.AppendEdges([]graph.EdgeOp{graph.InsertOp(1, 2, graph.Tree)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{FirstSeq: 1}) // on-disk state wins over the seed
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextSeq(); got != 101 {
		t.Fatalf("NextSeq after reopen = %d, want 101", got)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"window", SyncWindow, true},
		{"", SyncWindow, true},
		{"interval", SyncInterval, true},
		{"none", SyncNone, true},
		{"fsync", SyncWindow, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && tc.in != "" {
			if got.String() != tc.in {
				t.Errorf("String() = %q, want %q", got.String(), tc.in)
			}
		}
	}
}

func TestAppendEdgesNoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ops := make([]graph.EdgeOp, 64)
	for i := range ops {
		ops[i] = graph.InsertOp(graph.NodeID(i), graph.NodeID(i+1), graph.IDRef)
	}
	app := func() {
		if _, err := l.AppendEdges(ops); err != nil {
			t.Fatal(err)
		}
	}
	app() // warm the scratch buffer
	if avg := testing.AllocsPerRun(200, app); avg > 0 {
		t.Fatalf("AppendEdges allocates %.1f allocs/op, want 0", avg)
	}
}

func TestAppendScriptNoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ops := []opscript.Op{
		{Kind: opscript.Insert, U: 1, V: 2, Edge: graph.IDRef},
		{Kind: opscript.Delete, U: 1, V: 2},
		{Kind: opscript.AddNode, Label: "item", V: 3},
		{Kind: opscript.DelNode, U: 4},
	}
	app := func() {
		if _, err := l.Append(&Record{Kind: RecScript, Script: ops}); err != nil {
			t.Fatal(err)
		}
	}
	app() // warm the scratch buffer
	if avg := testing.AllocsPerRun(200, app); avg > 0 {
		t.Fatalf("AppendScript allocates %.1f allocs/op, want 0", avg)
	}
}
