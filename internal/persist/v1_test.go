package persist

import (
	"encoding/gob"
	"io"

	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/partition"
)

// The version-1 writers, as builds before the columnar format had them:
// the tests write with them the streams those builds left on disk and
// served to followers, which LoadDatabase must keep reading.

// encodeV1 is encodeStream under a version-1 header.
func encodeV1(w io.Writer, kind string, parts ...any) error {
	enc := gob.NewEncoder(w)
	for _, p := range append([]any{header{Magic: magic, Version: 1, Kind: kind}}, parts...) {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return nil
}

func graphToDTO(g view) *graphDTO {
	dto := &graphDTO{
		Root:       int32(g.Root()),
		AllowLoops: g.AllowSelfLoops(),
		Nodes:      make([]nodeDTO, g.MaxNodeID()),
	}
	ids := make(map[string]int32)
	for i := range dto.Nodes {
		v := graph.NodeID(i)
		if !g.Alive(v) {
			continue
		}
		name := g.LabelName(v)
		id, ok := ids[name]
		if !ok {
			id = int32(len(dto.Labels))
			dto.Labels = append(dto.Labels, name)
			ids[name] = id
		}
		n := &dto.Nodes[i]
		n.Alive = true
		n.Label = id
		n.Value = g.Value(v)
		g.EachSucc(v, func(w graph.NodeID, kind graph.EdgeKind) {
			n.Succ = append(n.Succ, edgeDTO{To: int32(w), Kind: uint8(kind)})
		})
	}
	return dto
}

func partToDTO(p *partition.Partition) *partitionDTO {
	dto := &partitionDTO{NumBlocks: p.NumBlocks(), BlockOf: make([]int32, p.Len())}
	for i := range dto.BlockOf {
		dto.BlockOf[i] = p.Block(graph.NodeID(i))
	}
	return dto
}

// saveSnapshotV1 is SaveSnapshot as version 1 wrote it.
func saveSnapshotV1(w io.Writer, snap *oneindex.Snapshot) error {
	f := snap.Data()
	dto := &partitionDTO{BlockOf: make([]int32, f.MaxNodeID())}
	for i := range dto.BlockOf {
		dto.BlockOf[i] = partition.NoBlock
	}
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
	return encodeV1(w, "database", true, false, graphToDTO(f), dto)
}
