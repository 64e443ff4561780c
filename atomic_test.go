package structix

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// dirNames lists dir's entries by name.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	failing := func(w io.Writer) error {
		io.WriteString(w, "half a fi") // a partial write must not surface
		return boom
	}

	// Failure with no previous target: nothing is left behind.
	if err := writeFileAtomic(dir, "f", failing); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("failed write left %v", names)
	}

	// Success: exactly the target, with the full contents.
	full := strings.Repeat("contents\n", 1000)
	if err := writeFileAtomic(dir, "f", func(w io.Writer) error {
		_, err := io.WriteString(w, full)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "f" {
		t.Fatalf("successful write left %v, want just f", names)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "f")); err != nil || string(got) != full {
		t.Fatalf("target holds %d bytes (err %v), want %d", len(got), err, len(full))
	}

	// Failure over an existing target: the target is not disturbed.
	if err := writeFileAtomic(dir, "f", failing); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "f" {
		t.Fatalf("failed overwrite left %v, want just f", names)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "f")); string(got) != full {
		t.Fatal("failed overwrite disturbed the existing target")
	}
}

// A compaction killed between creating its temp file and the rename leaves
// snap-<seq>.sx.tmp behind. Nothing ever names that file again, so Open
// must remove it — and must not mistake it for a snapshot.
func TestOpenRemovesStaleSnapshotTmp(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways, CompactEvery: -1, Bootstrap: xmarkBootstrap(32)})
	if err != nil {
		t.Fatal(err)
	}
	victim := NodeID(0)
	s := db.Shard(0).Snapshot()
	f := s.Data()
	f.EachSucc(f.Root(), func(w NodeID, _ EdgeKind) {
		if victim == 0 {
			victim = w
		}
	})
	if _, err := db.DeleteSubtree(victim); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, db.Shard(0).Snapshot())
	if err := db.Close(); err != nil { // seals a snapshot
		t.Fatal(err)
	}
	seqs, _, err := listSnapshots(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no snapshot after Close (err %v)", err)
	}

	stale := filepath.Join(dir, snapName(seqs[len(seqs)-1]+1)+tmpSuffix)
	if err := os.WriteFile(stale, []byte("killed mid-compaction"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatalf("Open with a stale snapshot temp file: %v", err)
	}
	defer db2.Close()
	if got := snapshotBytes(t, db2.Shard(0).Snapshot()); !bytes.Equal(got, want) {
		t.Error("recovered state differs")
	}
	if _, err := os.Stat(stale); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("stale temp file survived Open (stat err %v)", err)
	}
}

func TestWipeStoreRemovesStaleSnapshotTmp(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapName(3), snapName(4) + tmpSuffix, "unrelated"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := wipeStore(dir); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "unrelated" {
		t.Errorf("wipeStore left %v, want just the unrelated file", names)
	}
}

func TestOpenShardedManifestAtomic(t *testing.T) {
	dir := t.TempDir()
	sdb, err := Open(dir, Options{Shards: 3, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	b, err := os.ReadFile(filepath.Join(dir, shardManifest))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := strconv.Atoi(strings.TrimSpace(string(b))); err != nil || n != 3 {
		t.Errorf("manifest %q, want 3", b)
	}
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, tmpSuffix) {
			t.Errorf("temp file left behind: %s", path)
		}
		return err
	})
}
