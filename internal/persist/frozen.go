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
	return writeDatabase(w, snap.Data(), snapshotPartToDTO(snap), nil)
}

// SaveSnapshotCompressed is SaveSnapshot through a gzip layer; the
// result loads with LoadDatabaseAuto.
func SaveSnapshotCompressed(w io.Writer, snap *oneindex.Snapshot) error {
	return gzipped(w, func(zw io.Writer) error { return SaveSnapshot(zw, snap) })
}

// ErrBoundedSnapshot rejects saving an A(k) snapshot as a database stream:
// the format has no place for a level-k partition, and loading it as the
// 1-index it would claim to be yields a wrong index.
var ErrBoundedSnapshot = errors.New("persist: only a 1-index snapshot can be saved")

func snapshotPartToDTO(snap *oneindex.Snapshot) *partitionDTO {
	f := snap.Data()
	dto := &partitionDTO{BlockOf: make([]int32, f.MaxNodeID())}
	for i := range dto.BlockOf {
		dto.BlockOf[i] = partition.NoBlock
	}
	// Renumber live inodes densely; FromPartition re-derives everything
	// else from the block structure.
	for i := 0; i < snap.Slots(); i++ {
		I := oneindex.INodeID(i)
		if !snap.Live(I) {
			continue
		}
		b := int32(dto.NumBlocks)
		dto.NumBlocks++
		snap.ExtentView(I).Each(func(v graph.NodeID) {
			dto.BlockOf[v] = b
		})
	}
	return dto
}
