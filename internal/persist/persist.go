// Package persist serializes data graphs and structural indexes to a
// versioned binary format (encoding/gob under a magic header), so a
// database and its maintained indexes survive process restarts without
// reconstruction — the operational point of incremental maintenance.
//
// Indexes are persisted as their dnode partitions (plus the level
// partitions for the A(k) family): the partition fully determines the
// index (§3), and loading through the ordinary constructors re-derives
// extents, iedges and counts, so a loaded index passes the same structural
// validation as a built one.
//
// # One encoder
//
// Each stream kind has one writer. graphToDTO is the only graph encoder: it
// reads a live *graph.Graph and an immutable *graph.Frozen through the same
// graphView, and numbers labels in first-seen NodeID order, so the loaded
// graph's LabelIDs may differ from the live graph's while names, values,
// NodeIDs (dead slots included), edges, the root and the self-loop policy
// are preserved exactly. writeDatabase is the only writer of a "database"
// stream (header, hasOne, hasAk, graph, partitions). SaveDatabase and
// SaveSnapshot differ only in where the partition comes from — the live
// index's ToPartition versus a snapshot's extents — and a stream written
// by either loads with LoadDatabase / LoadDatabaseAuto, as do streams from
// before the encoders were folded (label table in interner order).
package persist

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"

	"structix/internal/akindex"
	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/partition"
)

const (
	magic   = "structix"
	version = 1
)

type header struct {
	Magic   string
	Version int
	Kind    string // "graph" or "database"
}

type graphDTO struct {
	Labels     []string // interned label names, by LabelID
	Root       int32
	AllowLoops bool
	Nodes      []nodeDTO // dense by NodeID; dead slots have Alive=false
}

type nodeDTO struct {
	Alive bool
	Label int32
	Value string
	Succ  []edgeDTO
}

type edgeDTO struct {
	To   int32
	Kind uint8
}

type partitionDTO struct {
	BlockOf   []int32
	NumBlocks int
}

// A single gob Encoder/Decoder is used per stream: gob decoders buffer
// ahead of what they decode, so nesting fresh decoders on one reader would
// lose bytes.

// encodeStream writes a header of the given kind, then each part, through
// one encoder.
func encodeStream(w io.Writer, kind string, parts ...any) error {
	enc := gob.NewEncoder(w)
	for _, p := range append([]any{header{Magic: magic, Version: version, Kind: kind}}, parts...) {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return nil
}

func readHeader(dec *gob.Decoder, kind string) error {
	var h header
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("persist: reading header: %w", err)
	}
	if h.Magic != magic {
		return fmt.Errorf("persist: bad magic %q", h.Magic)
	}
	if h.Version != version {
		return fmt.Errorf("persist: unsupported version %d", h.Version)
	}
	if h.Kind != kind {
		return fmt.Errorf("persist: expected %s stream, found %s", kind, h.Kind)
	}
	return nil
}

// SaveGraph writes the graph, preserving NodeIDs exactly (including dead
// slots), so persisted indexes remain valid against the loaded graph.
func SaveGraph(w io.Writer, g *graph.Graph) error {
	return encodeStream(w, "graph", graphToDTO(g))
}

// LoadGraph reads a graph written by SaveGraph.
func LoadGraph(r io.Reader) (*graph.Graph, error) {
	dec := gob.NewDecoder(r)
	if err := readHeader(dec, "graph"); err != nil {
		return nil, err
	}
	return decodeGraph(dec)
}

func decodeGraph(dec *gob.Decoder) (*graph.Graph, error) {
	var dto graphDTO
	if err := dec.Decode(&dto); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return graphFromDTO(&dto)
}

// graphView is what the encoder reads of a graph; *graph.Graph and
// *graph.Frozen both satisfy it.
type graphView interface {
	Root() graph.NodeID
	MaxNodeID() graph.NodeID
	Alive(graph.NodeID) bool
	LabelName(graph.NodeID) string
	Value(graph.NodeID) string
	EachSucc(graph.NodeID, func(graph.NodeID, graph.EdgeKind))
	AllowSelfLoops() bool
}

func graphToDTO(g graphView) *graphDTO {
	dto := &graphDTO{
		Root:       int32(g.Root()),
		AllowLoops: g.AllowSelfLoops(),
		Nodes:      make([]nodeDTO, g.MaxNodeID()),
	}
	// The view carries label names, not interner ids: build the label
	// table in first-seen order.
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

func graphFromDTO(dto *graphDTO) (*graph.Graph, error) {
	in := graph.NewInterner()
	for _, name := range dto.Labels {
		in.Intern(name)
	}
	g := graph.NewShared(in)
	g.SetAllowSelfLoops(dto.AllowLoops)
	// Recreate the exact NodeID space, dead slots included.
	var dead []graph.NodeID
	for i, n := range dto.Nodes {
		label := graph.LabelID(0)
		if n.Alive {
			if n.Label < 0 || int(n.Label) >= in.Len() {
				return nil, fmt.Errorf("persist: node %d has unknown label %d", i, n.Label)
			}
			label = graph.LabelID(n.Label)
		}
		v := g.AddNodeL(label)
		if graph.NodeID(i) != v {
			return nil, fmt.Errorf("persist: node id drift at %d", i)
		}
		if n.Alive {
			if n.Value != "" {
				g.SetValue(v, n.Value)
			}
		} else {
			dead = append(dead, v)
		}
	}
	for i, n := range dto.Nodes {
		for _, e := range n.Succ {
			if k := graph.EdgeKind(e.Kind); k != graph.Tree && k != graph.IDRef {
				return nil, fmt.Errorf("persist: edge %d->%d has unknown kind %d", i, e.To, e.Kind)
			}
			if err := g.AddEdge(graph.NodeID(i), graph.NodeID(e.To), graph.EdgeKind(e.Kind)); err != nil {
				return nil, fmt.Errorf("persist: edge %d->%d: %w", i, e.To, err)
			}
		}
	}
	for _, v := range dead {
		g.RemoveNode(v)
	}
	if dto.Root >= 0 {
		g.SetRoot(graph.NodeID(dto.Root))
	}
	return g, nil
}

// decodePartition reads one partition and checks it against the graph it
// sits beside.
func decodePartition(dec *gob.Decoder, g *graph.Graph) (*partition.Partition, error) {
	var dto partitionDTO
	if err := dec.Decode(&dto); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return partFromDTO(&dto, g)
}

// An A(k) family is persisted as k followed by its k+1 level partitions.
func decodeAkIndex(dec *gob.Decoder, g *graph.Graph) (*akindex.Index, error) {
	var k int
	if err := dec.Decode(&k); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if k < 1 || k > 1<<16 {
		return nil, fmt.Errorf("persist: implausible k=%d", k)
	}
	levels := make([]*partition.Partition, k+1)
	for l := range levels {
		p, err := decodePartition(dec, g)
		if err != nil {
			return nil, fmt.Errorf("persist: level %d: %w", l, err)
		}
		levels[l] = p
	}
	return akindex.FromLevels(g, levels), nil
}

func partToDTO(p *partition.Partition) *partitionDTO {
	dto := &partitionDTO{NumBlocks: p.NumBlocks(), BlockOf: make([]int32, p.Len())}
	for i := range dto.BlockOf {
		dto.BlockOf[i] = p.Block(graph.NodeID(i))
	}
	return dto
}

func partFromDTO(dto *partitionDTO, g *graph.Graph) (*partition.Partition, error) {
	if len(dto.BlockOf) != int(g.MaxNodeID()) {
		return nil, fmt.Errorf("persist: partition over %d nodes, graph has id space %d",
			len(dto.BlockOf), g.MaxNodeID())
	}
	p := partition.NewPartition(g.MaxNodeID())
	for i, b := range dto.BlockOf {
		alive := g.Alive(graph.NodeID(i))
		if (b == partition.NoBlock) == alive {
			return nil, fmt.Errorf("persist: node %d liveness disagrees with partition", i)
		}
		if b != partition.NoBlock {
			if b < 0 || int(b) >= dto.NumBlocks {
				return nil, fmt.Errorf("persist: block id %d out of range", b)
			}
			p.SetBlock(graph.NodeID(i), b)
		}
	}
	p.SetNumBlocks(dto.NumBlocks)
	return p, nil
}

// Database bundles a graph with its indexes in one stream.
type Database struct {
	Graph *graph.Graph
	One   *oneindex.Index // may be nil
	Ak    *akindex.Index  // may be nil
}

// SaveDatabaseCompressed is SaveDatabase through a gzip layer (~3-5×
// smaller for XML-shaped databases). The two stream kinds are
// distinguished by gzip's own magic bytes, so LoadDatabaseAuto accepts
// either.
func SaveDatabaseCompressed(w io.Writer, db *Database) error {
	return gzipped(w, func(zw io.Writer) error { return SaveDatabase(zw, db) })
}

// gzipped runs save through a gzip layer over w. A save that fails is not
// closed, so one that fails before its first byte leaves w untouched.
func gzipped(w io.Writer, save func(io.Writer) error) error {
	zw := gzip.NewWriter(w)
	if err := save(zw); err != nil {
		return err
	}
	return zw.Close()
}

// loadDatabaseCompressed reads a stream written by SaveDatabaseCompressed.
func loadDatabaseCompressed(r io.Reader) (*Database, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	defer zr.Close()
	return LoadDatabase(zr)
}

// LoadDatabaseAuto sniffs gzip's magic bytes and dispatches to the
// compressed or plain loader.
func LoadDatabaseAuto(r io.Reader) (*Database, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if magic[0] == 0x1f && magic[1] == 0x8b {
		return loadDatabaseCompressed(br)
	}
	return LoadDatabase(br)
}

// SaveDatabase writes graph + optional indexes to one stream.
func SaveDatabase(w io.Writer, db *Database) error {
	var one *partitionDTO
	var ak []*partitionDTO
	if db.One != nil {
		one = partToDTO(db.One.ToPartition())
	}
	if db.Ak != nil {
		for l := 0; l <= db.Ak.K(); l++ {
			ak = append(ak, partToDTO(db.Ak.ToPartition(l)))
		}
	}
	return writeDatabase(w, db.Graph, one, ak)
}

// writeDatabase is the one writer of a "database" stream: hasOne, hasAk,
// the graph, then the 1-index partition and the A(k) family (k, then its
// k+1 level partitions), each if present.
func writeDatabase(w io.Writer, g graphView, one *partitionDTO, ak []*partitionDTO) error {
	parts := []any{one != nil, ak != nil, graphToDTO(g)}
	if one != nil {
		parts = append(parts, one)
	}
	if ak != nil {
		parts = append(parts, len(ak)-1)
		for _, p := range ak {
			parts = append(parts, p)
		}
	}
	return encodeStream(w, "database", parts...)
}

// LoadDatabase reads a stream written by SaveDatabase. The indexes are
// bound to the loaded graph.
func LoadDatabase(r io.Reader) (*Database, error) {
	dec := gob.NewDecoder(r)
	if err := readHeader(dec, "database"); err != nil {
		return nil, err
	}
	var hasOne, hasAk bool
	if err := dec.Decode(&hasOne); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := dec.Decode(&hasAk); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	g, err := decodeGraph(dec)
	if err != nil {
		return nil, err
	}
	db := &Database{Graph: g}
	if hasOne { // a 1-index is persisted as its dnode partition
		p, err := decodePartition(dec, g)
		if err != nil {
			return nil, err
		}
		db.One = oneindex.FromPartition(g, p)
	}
	if hasAk {
		if db.Ak, err = decodeAkIndex(dec, g); err != nil {
			return nil, err
		}
	}
	return db, nil
}
