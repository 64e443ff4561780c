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

func writeHeader(enc *gob.Encoder, kind string) error {
	return enc.Encode(header{Magic: magic, Version: version, Kind: kind})
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
	enc := gob.NewEncoder(w)
	if err := writeHeader(enc, "graph"); err != nil {
		return err
	}
	return encodeGraph(enc, g)
}

// LoadGraph reads a graph written by SaveGraph.
func LoadGraph(r io.Reader) (*graph.Graph, error) {
	dec := gob.NewDecoder(r)
	if err := readHeader(dec, "graph"); err != nil {
		return nil, err
	}
	return decodeGraph(dec)
}

func encodeGraph(enc *gob.Encoder, g *graph.Graph) error {
	return enc.Encode(graphToDTO(g))
}

func decodeGraph(dec *gob.Decoder) (*graph.Graph, error) {
	var dto graphDTO
	if err := dec.Decode(&dto); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return graphFromDTO(&dto)
}

func graphToDTO(g *graph.Graph) *graphDTO {
	labels := make([]string, g.Labels().Len())
	for i := range labels {
		labels[i] = g.Labels().Name(graph.LabelID(i))
	}
	dto := &graphDTO{
		Labels: labels,
		Root:   int32(g.Root()),
		Nodes:  make([]nodeDTO, g.MaxNodeID()),
	}
	g.EachNode(func(v graph.NodeID) {
		n := &dto.Nodes[v]
		n.Alive = true
		n.Label = int32(g.Label(v))
		n.Value = g.Value(v)
		g.EachSucc(v, func(w graph.NodeID, kind graph.EdgeKind) {
			n.Succ = append(n.Succ, edgeDTO{To: int32(w), Kind: uint8(kind)})
		})
	})
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

// A 1-index is persisted as its dnode partition.
func encodeOneIndex(enc *gob.Encoder, x *oneindex.Index) error {
	return enc.Encode(partToDTO(x.ToPartition()))
}

func decodeOneIndex(dec *gob.Decoder, g *graph.Graph) (*oneindex.Index, error) {
	var dto partitionDTO
	if err := dec.Decode(&dto); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	p, err := partFromDTO(&dto, g)
	if err != nil {
		return nil, err
	}
	return oneindex.FromPartition(g, p), nil
}

// An A(k) family is persisted as k followed by its k+1 level partitions.
func encodeAkIndex(enc *gob.Encoder, x *akindex.Index) error {
	if err := enc.Encode(x.K()); err != nil {
		return err
	}
	for l := 0; l <= x.K(); l++ {
		if err := enc.Encode(partToDTO(x.ToPartition(l))); err != nil {
			return err
		}
	}
	return nil
}

func decodeAkIndex(dec *gob.Decoder, g *graph.Graph) (*akindex.Index, error) {
	var k int
	if err := dec.Decode(&k); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if k < 1 || k > 1<<16 {
		return nil, fmt.Errorf("persist: implausible k=%d", k)
	}
	levels := make([]*partition.Partition, k+1)
	for l := 0; l <= k; l++ {
		var dto partitionDTO
		if err := dec.Decode(&dto); err != nil {
			return nil, fmt.Errorf("persist: level %d: %w", l, err)
		}
		p, err := partFromDTO(&dto, g)
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
	zw := gzip.NewWriter(w)
	if err := SaveDatabase(zw, db); err != nil {
		zw.Close()
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
	enc := gob.NewEncoder(w)
	if err := writeHeader(enc, "database"); err != nil {
		return err
	}
	if err := enc.Encode(db.One != nil); err != nil {
		return err
	}
	if err := enc.Encode(db.Ak != nil); err != nil {
		return err
	}
	if err := encodeGraph(enc, db.Graph); err != nil {
		return err
	}
	if db.One != nil {
		if err := encodeOneIndex(enc, db.One); err != nil {
			return err
		}
	}
	if db.Ak != nil {
		if err := encodeAkIndex(enc, db.Ak); err != nil {
			return err
		}
	}
	return nil
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
	if hasOne {
		if db.One, err = decodeOneIndex(dec, g); err != nil {
			return nil, err
		}
	}
	if hasAk {
		if db.Ak, err = decodeAkIndex(dec, g); err != nil {
			return nil, err
		}
	}
	return db, nil
}
