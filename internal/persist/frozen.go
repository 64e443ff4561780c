package persist

import (
	"errors"
	"fmt"
	"io"

	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/partition"
)

// SaveSnapshot writes a "database" stream — readable by LoadDatabase /
// LoadDatabaseAuto — from an immutable index snapshot and its frozen
// graph, instead of the live structures. This is what lets a background
// compactor persist a consistent point-in-time state while writers keep
// committing: a Snapshot never changes after publication, so no lock is
// held for the duration of the write.
//
// The stream declares a 1-index partition, so a bounded snapshot — the
// level-k partition of an A(k) family, which is the same Go type — is
// rejected with ErrBoundedSnapshot before anything is written.
func SaveSnapshot(w io.Writer, snap *oneindex.Snapshot) error {
	if snap.Bounded() {
		return fmt.Errorf("%w: got A(%d)", ErrBoundedSnapshot, snap.K())
	}
	return writeDatabase(w, snap.Data().Columns(), snapshotCols(snap), nil)
}

// SaveSnapshotCompressed is SaveSnapshot through a gzip layer; the
// result loads with LoadDatabaseAuto.
func SaveSnapshotCompressed(w io.Writer, snap *oneindex.Snapshot) error {
	return gzipped(w, func(zw io.Writer) error { return SaveSnapshot(zw, snap) })
}

// SavePartitionCompressed writes, through a gzip layer, the stream of
// graph f with the 1-index whose dnode partition is one. Where one's block
// ids are inode ids — Build's numbered partition, an index's ToPartition —
// these are the bytes SaveSnapshotCompressed writes for the snapshot of
// oneindex.FromPartition over f's graph, so a store can write its first
// snapshot while that index is still being assembled.
func SavePartitionCompressed(w io.Writer, f *graph.Frozen, one *partition.Partition) error {
	return gzipped(w, func(zw io.Writer) error {
		return writeDatabase(zw, f.Columns(), new(partCols).add(one.Blocks()...), nil)
	})
}

// ErrBoundedSnapshot rejects saving an A(k) snapshot as a database stream:
// the format has no place for a level-k partition, and loading it as the
// 1-index it would claim to be yields a wrong index.
var ErrBoundedSnapshot = errors.New("persist: only a 1-index snapshot can be saved")

// snapshotCols numbers the live inodes densely in slot order, one block
// each; FromPartition re-derives everything else from the blocks.
func snapshotCols(snap *oneindex.Snapshot) *partCols {
	pc := &partCols{}
	var buf []graph.NodeID
	for i := 0; i < snap.Slots(); i++ {
		if I := oneindex.INodeID(i); snap.Live(I) {
			buf = snap.ExtentView(I).AppendTo(buf[:0])
			pc.add(buf)
		}
	}
	return pc
}
