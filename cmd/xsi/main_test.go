package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"structix"
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
