package persist

import (
	"compress/gzip"
	"encoding/gob"
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
// Label ids are re-interned in first-seen NodeID order, so the loaded
// graph's LabelID numbering may differ from the live graph's; names,
// values, NodeIDs (dead slots included), edges and the index partition
// are preserved exactly.
//
// The stream declares a 1-index partition, so a bounded snapshot — the
// level-k partition of an A(k) family, which is the same Go type — is
// rejected with ErrBoundedSnapshot before anything is written.
func SaveSnapshot(w io.Writer, snap *oneindex.Snapshot) error {
	if snap.Bounded() {
		return fmt.Errorf("%w: got A(%d)", ErrBoundedSnapshot, snap.K())
	}
	enc := gob.NewEncoder(w)
	if err := writeHeader(enc, "database"); err != nil {
		return err
	}
	if err := enc.Encode(true); err != nil { // hasOne
		return err
	}
	if err := enc.Encode(false); err != nil { // hasAk
		return err
	}
	if err := enc.Encode(frozenGraphToDTO(snap.Data())); err != nil {
		return err
	}
	return enc.Encode(snapshotPartToDTO(snap))
}

// SaveSnapshotCompressed is SaveSnapshot through a gzip layer; the
// result loads with LoadDatabaseAuto.
func SaveSnapshotCompressed(w io.Writer, snap *oneindex.Snapshot) error {
	if snap.Bounded() {
		return fmt.Errorf("%w: got A(%d)", ErrBoundedSnapshot, snap.K())
	}
	zw := gzip.NewWriter(w)
	if err := SaveSnapshot(zw, snap); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// ErrBoundedSnapshot rejects saving an A(k) snapshot as a database stream:
// the format has no place for a level-k partition, and loading it as the
// 1-index it would claim to be yields a wrong index.
var ErrBoundedSnapshot = errors.New("persist: only a 1-index snapshot can be saved")

func frozenGraphToDTO(f *graph.Frozen) *graphDTO {
	dto := &graphDTO{
		Root:       int32(f.Root()),
		AllowLoops: f.AllowSelfLoops(),
		Nodes:      make([]nodeDTO, f.MaxNodeID()),
	}
	// A Frozen carries label names, not interner ids: rebuild a label
	// table in first-seen order.
	ids := make(map[string]int32)
	intern := func(name string) int32 {
		id, ok := ids[name]
		if !ok {
			id = int32(len(dto.Labels))
			dto.Labels = append(dto.Labels, name)
			ids[name] = id
		}
		return id
	}
	for i := range dto.Nodes {
		v := graph.NodeID(i)
		if !f.Alive(v) {
			continue
		}
		n := &dto.Nodes[i]
		n.Alive = true
		n.Label = intern(f.LabelName(v))
		n.Value = f.Value(v)
		f.EachSucc(v, func(w graph.NodeID, kind graph.EdgeKind) {
			n.Succ = append(n.Succ, edgeDTO{To: int32(w), Kind: uint8(kind)})
		})
	}
	return dto
}

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
