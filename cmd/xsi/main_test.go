package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structix"
	"structix/internal/partition"
)

// query -index auto over a loaded database must plan over the indexes the
// file stores, not over indexes rebuilt from its graph: a stored A(2) is
// what the plan names, even under the default -k 3.
func TestQueryAutoUsesStoredIndexes(t *testing.T) {
	g, err := structix.ParseXMLString(`<site><people><person><name>A</name></person></people></site>`)
	if err != nil {
		t.Fatal(err)
	}
	db := &structix.Database{Graph: g, One: structix.BuildOneIndex(g), Ak: structix.BuildAkIndex(g, 2)}
	out := captureStdout(t, func() { runQuery(g, db, "/site/people", "auto", 3, false) })
	if !strings.Contains(out, "plan: ak-level") || !strings.Contains(out, "k=2") {
		t.Fatalf("plan did not use the stored A(2):\n%s", out)
	}
	if !strings.Contains(out, "1 results for /site/people") {
		t.Fatalf("wrong result:\n%s", out)
	}
}

// An update script that points an IDREF edge into the root is accepted by
// xsi update, so xsi validate must accept the database it leaves behind.
func TestValidateAfterRootInEdgeUpdate(t *testing.T) {
	g, err := structix.ParseXMLString(`<site><people/></site>`)
	if err != nil {
		t.Fatal(err)
	}
	db := &structix.Database{Graph: g, One: structix.BuildOneIndex(g), Ak: structix.BuildAkIndex(g, 2)}
	site := g.Succ(g.Root())[0]
	script := filepath.Join(t.TempDir(), "ops.txt")
	if err := os.WriteFile(script, []byte(fmt.Sprintf("insert %d %d idref\n", site, g.Root())), 0o644); err != nil {
		t.Fatal(err)
	}
	captureStdout(t, func() { update(db, script, "", false) })
	// A rejected database makes validateDB exit the test binary non-zero.
	out := captureStdout(t, func() { validateDB(g, db, 2) })
	if !strings.Contains(out, "ok: persisted database validates") {
		t.Fatalf("validate output:\n%s", out)
	}
}

// xsi update runs every op kind against a database xsi build wrote, which
// holds both indexes. The stored A(k) family must then equal, level by
// level, one maintained through the same script.
func TestUpdateBuiltDatabaseAllOpKinds(t *testing.T) {
	g, err := structix.ParseXMLString(`<site><people><person><name>A</name></person>` +
		`<person><name>B</name><watch/></person></people><auctions><auction><item/></auction></auctions></site>`)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	built, updated := filepath.Join(dir, "db.sx"), filepath.Join(dir, "db2.sx")
	captureStdout(t, func() { build(g, 2, built, false) })
	db := loadDB(built)
	g = db.Graph
	first := func(label string, nth int) structix.NodeID {
		for _, v := range g.Nodes() {
			if g.LabelName(v) == label {
				if nth == 0 {
					return v
				}
				nth--
			}
		}
		t.Fatalf("no %s #%d", label, nth)
		return structix.InvalidNode
	}
	p1, p2, name2 := first("person", 0), first("person", 1), first("name", 1)
	text := fmt.Sprintf("insert %d %d idref\naddnode hobby %d\ninsert %d %d idref\ndelete %d %d\ndelnode %d\ndelsub %d\n",
		p1, name2, p2, first("site", 0), p2, p1, name2, first("watch", 0), first("auctions", 0))
	ops, err := structix.ParseOps(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := structix.BuildAkIndex(g.Clone(), 2)
	if _, err := structix.ApplyOps(want, ops); err != nil {
		t.Fatal(err)
	}
	script := filepath.Join(dir, "ops.txt")
	if err := os.WriteFile(script, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failing update or validation exits the test binary non-zero.
	captureStdout(t, func() { update(db, script, updated, false) })
	db = loadDB(updated)
	if out := captureStdout(t, func() { validateDB(db.Graph, db, 2) }); !strings.Contains(out, "ok: persisted database validates") {
		t.Fatalf("validate output:\n%s", out)
	}
	for l := 0; l <= 2; l++ {
		if !partition.Equal(db.Ak.ToPartition(l), want.ToPartition(l)) {
			t.Errorf("A(%d) level differs from the maintained family's", l)
		}
	}
}

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	fn()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
