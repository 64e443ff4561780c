package structix_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"structix"
)

// copyFixture copies testdata/layout/name into a fresh temp dir, so a
// test may open (and write) the store without touching the fixture.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "layout", name)
	dst := filepath.Join(t.TempDir(), name)
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestLayoutFixtures opens the two checked-in store layouts — a single
// store (snapshot and wal/ at the top of the directory) and a 2-shard
// store (a manifest and shard-NN/ subdirectories) — and pins what each
// recovers: the inode map of every shard, the journal records replayed
// on top of the snapshots, and the journal bytes after one more write.
// Both fixtures hold a bootstrap snapshot (8 components under the root,
// each a person and an open auction below a top node) and four writes
// (two edge batches, a node added by a script, an edge deleted), and were
// never closed, so every open replays the journal tail.
func TestLayoutFixtures(t *testing.T) {
	for _, c := range []struct {
		name     string
		walDirs  []string
		inodes   []string
		replayed []int
		journal  string
	}{
		{
			name:     "single",
			walDirs:  []string{"wal"},
			inodes:   []string{"4ad814dc3a669ed39d0e663e02c399b398284ab2b18127fc05f8a6041f34783b"},
			replayed: []int{4},
			journal:  "93f1b7e2984e04aad5a2d3a06044d3875e981f3db67ea8bd0c2418298bd4f512",
		},
		{
			name:    "sharded",
			walDirs: []string{filepath.Join("shard-00", "wal"), filepath.Join("shard-01", "wal")},
			inodes: []string{
				"fa2c72208a11818da8ed9be1485ecd4ee13fc9aa8d071cdbe0e067f7b6c8f449",
				"548baff8e9325b32d620e2fad51dfe22f3a9c5d31492b4ae1fc7e33a5509a6c3",
			},
			replayed: []int{2, 2},
			journal:  "9cd878459f90a9e27a3c4b7773bd794c7cbac2d3ed384e7284af7c5e134060af",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := copyFixture(t, c.name)
			db, replayed, err := openFixture(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			snap := db.Snapshot()
			inodes := make([]string, snap.NumShards())
			for s := range inodes {
				d := newWriteDigest()
				d.snapshot(snap.Shard(s))
				inodes[s] = d.sums()[1]
			}
			if !reflect.DeepEqual(inodes, c.inodes) {
				t.Errorf("inode digests %q, pinned %q", inodes, c.inodes)
			}
			if !reflect.DeepEqual(replayed, c.replayed) {
				t.Errorf("replayed %v records per shard, pinned %v", replayed, c.replayed)
			}
			ps := db.Eval(structix.MustParsePath("//person"))
			if _, err := db.ApplyScript([]structix.ScriptOp{{Kind: structix.ScriptAddNode, Label: "memo", V: ps[len(ps)-1]}}); err != nil {
				t.Fatal(err)
			}
			d := newWriteDigest()
			for _, w := range c.walDirs {
				d.segments(t, filepath.Join(dir, w))
			}
			if got := d.sums()[2]; got != c.journal {
				t.Errorf("journal digest %s, pinned %s", got, c.journal)
			}
		})
	}
}

// treeDigest hashes every path and file under dir, in walk order.
func treeDigest(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(h, "%s %v\n", rel, d.IsDir())
		if d.IsDir() {
			return nil
		}
		b, err := os.ReadFile(path)
		h.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLayoutMismatch: Open refuses a directory whose layout disagrees
// with Options.Shards — more shards over a single store, another count
// than a sharded store's manifest pins — with a *LayoutError naming both
// counts, and writes nothing: the fixture's files are byte-identical
// afterwards, and no file is added.
func TestLayoutMismatch(t *testing.T) {
	for _, c := range []struct {
		fixture string
		asked   int
		holds   int
	}{
		{"single", 2, 1},
		{"sharded", 1, 2},
		{"sharded", 3, 2},
	} {
		t.Run(fmt.Sprintf("%s-as-%d", c.fixture, c.asked), func(t *testing.T) {
			dir := copyFixture(t, c.fixture)
			before := treeDigest(t, dir)
			db, err := structix.Open(dir, structix.Options{Shards: c.asked})
			if err == nil {
				db.Close()
			}
			var le *structix.LayoutError
			if !errors.As(err, &le) || le.Shards != c.holds || le.Asked != c.asked {
				t.Fatalf("Open = %v, want a LayoutError: holds %d, asked %d", err, c.holds, c.asked)
			}
			if after := treeDigest(t, dir); after != before {
				t.Error("the refused open changed the directory")
			}
		})
	}
}

// TestLayoutMissingManifest opens the sharded fixture without its
// manifest — a sharded Open that stopped before writing it — as a single
// store (Shards 0 and 1): a *LayoutError naming the shard directories it
// found, and nothing written beside them.
func TestLayoutMissingManifest(t *testing.T) {
	for _, asked := range []int{0, 1} {
		t.Run(fmt.Sprintf("as-%d", asked), func(t *testing.T) {
			dir := copyFixture(t, "sharded")
			if err := os.Remove(filepath.Join(dir, "shards")); err != nil {
				t.Fatal(err)
			}
			before := treeDigest(t, dir)
			db, err := structix.Open(dir, structix.Options{Shards: asked})
			if err == nil {
				db.Close()
			}
			var le *structix.LayoutError
			if !errors.As(err, &le) || le.Shards != 2 || le.Asked != asked {
				t.Fatalf("Open = %v, want a LayoutError: holds 2, asked %d", err, asked)
			}
			if after := treeDigest(t, dir); after != before {
				t.Error("the refused open changed the directory")
			}
		})
	}
}
