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
// # Format
//
// Version 2 stores the graph as flat columns (graph.Columns) and each
// partition as its blocks' sizes and gap-coded members (partCols). A
// version-1 stream, one gob struct per node and a block id per dnode, is
// converted to the same columns, and both load through one bulk path —
// graph.FromColumns, then oneindex.FromPartition — after every check on
// the columns has passed.
//
// # One encoder
//
// Each stream kind has one writer. The graph's own Columns — of a live
// *graph.Graph or of an immutable *graph.Frozen, the same walk over its
// records in NodeID order — is the only graph encoder. It numbers labels
// in first-seen NodeID order, so the loaded graph's LabelIDs may differ
// from the live graph's while names, values, NodeIDs (dead slots
// included), edges, the root and the self-loop policy are preserved
// exactly. writeDatabase is the only writer of a "database" stream
// (header, hasOne, hasAk, graph, partitions). SaveDatabase, SaveSnapshot
// and SavePartitionCompressed differ only in where the graph and the
// partition come from — the live index's ToPartition, a snapshot's
// extents, or a partition an index is about to be built from — and a
// stream written by any of them loads with LoadDatabase /
// LoadDatabaseAuto.
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
	version = 2 // what the writers write; LoadDatabase also reads version 1
)

type header struct {
	Magic   string
	Version int
	Kind    string // "graph" or "database"
}

// The version-1 graph and partition encodings, decoded only to be
// converted to columns.
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

// partCols is a version-2 partition: per block, in block order, its size;
// then each block's members ascending, as gaps from the member before
// (the first from −1), so every gap is ≥ 1.
type partCols struct {
	Sizes   []uint32
	Members []uint32
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

// readHeader checks the header and returns the stream's version.
func readHeader(dec *gob.Decoder, kind string) (int, error) {
	var h header
	if err := dec.Decode(&h); err != nil {
		return 0, fmt.Errorf("persist: reading header: %w", err)
	}
	if h.Magic != magic {
		return 0, fmt.Errorf("persist: bad magic %q", h.Magic)
	}
	if h.Version != 1 && h.Version != version {
		return 0, fmt.Errorf("persist: unsupported version %d", h.Version)
	}
	if h.Kind != kind {
		return 0, fmt.Errorf("persist: expected %s stream, found %s", kind, h.Kind)
	}
	return h.Version, nil
}

// decode reads the next part of a stream as a T.
func decode[T any](dec *gob.Decoder) (*T, error) {
	p := new(T)
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return p, nil
}

// decodePart reads the next part of a version-2 stream as a T, or of a
// version-1 stream as its V1 encoding, converted.
func decodePart[V1, T any](dec *gob.Decoder, version int, convert func(*V1) (*T, error)) (*T, error) {
	if version != 1 {
		return decode[T](dec)
	}
	old, err := decode[V1](dec)
	if err != nil {
		return nil, err
	}
	return convert(old)
}

// SaveGraph writes the graph, preserving NodeIDs exactly (including dead
// slots), so persisted indexes remain valid against the loaded graph.
func SaveGraph(w io.Writer, g *graph.Graph) error {
	return encodeStream(w, "graph", g.Columns())
}

// LoadGraph reads a graph written by SaveGraph.
func LoadGraph(r io.Reader) (*graph.Graph, error) {
	dec := gob.NewDecoder(r)
	v, err := readHeader(dec, "graph")
	if err != nil {
		return nil, err
	}
	c, err := decodePart(dec, v, (*graphDTO).columns)
	if err != nil {
		return nil, err
	}
	g, err := graph.FromColumns(c)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return g, nil
}

// columns converts a version-1 graph. Dead slots carry nothing: loading
// version 1 always dropped what they held.
func (dto *graphDTO) columns() (*graph.Columns, error) {
	n := len(dto.Nodes)
	c := &graph.Columns{Labels: dto.Labels, Root: max(dto.Root, int32(graph.InvalidNode)), AllowLoops: dto.AllowLoops,
		Label: make([]uint32, n), Value: make([]string, n), OutDeg: make([]uint32, n)}
	for i, nd := range dto.Nodes {
		if !nd.Alive {
			continue
		}
		if nd.Label < 0 {
			return nil, fmt.Errorf("persist: node %d has unknown label %d", i, nd.Label)
		}
		c.Label[i], c.Value[i], c.OutDeg[i] = uint32(nd.Label)+1, nd.Value, uint32(len(nd.Succ))
		for _, e := range nd.Succ {
			if k := graph.EdgeKind(e.Kind); k != graph.Tree && k != graph.IDRef {
				return nil, fmt.Errorf("persist: edge %d->%d has unknown kind %d", i, e.To, e.Kind)
			}
			c.Edges = append(c.Edges, graph.EdgeCode(graph.NodeID(i), graph.NodeID(e.To), graph.EdgeKind(e.Kind)))
		}
	}
	return c, nil
}

// cols converts a version-1 partition, its block count bounded by its own
// length first. A block no dnode is in drops out: it never got an inode.
func (dto *partitionDTO) cols() (*partCols, error) {
	if dto.NumBlocks < 0 || dto.NumBlocks > len(dto.BlockOf) {
		return nil, fmt.Errorf("persist: %d blocks over %d dnodes", dto.NumBlocks, len(dto.BlockOf))
	}
	blocks := make([][]graph.NodeID, dto.NumBlocks)
	for v, b := range dto.BlockOf {
		if b < partition.NoBlock || int(b) >= dto.NumBlocks {
			return nil, fmt.Errorf("persist: block id %d out of range", b)
		}
		if b != partition.NoBlock {
			blocks[b] = append(blocks[b], graph.NodeID(v))
		}
	}
	return new(partCols).add(blocks...), nil
}

// add appends blocks, each sorted ascending; empty ones are skipped.
func (pc *partCols) add(blocks ...[]graph.NodeID) *partCols {
	for _, m := range blocks {
		if len(m) > 0 {
			pc.Sizes = append(pc.Sizes, uint32(len(m)))
		}
		for i, prev := 0, graph.NodeID(-1); i < len(m); prev, i = m[i], i+1 {
			pc.Members = append(pc.Members, uint32(m[i]-prev))
		}
	}
	return pc
}

// partition checks pc against the graph columns c beside it — blocks
// non-empty and label-pure, every member a live dnode, every live dnode
// in exactly one block — and returns it with blocks numbered in order.
func (pc *partCols) partition(c *graph.Columns) (*partition.Partition, error) {
	n, i, live := len(c.Label), 0, 0
	p := partition.NewPartition(graph.NodeID(n))
	for b, size := range pc.Sizes {
		if size == 0 || uint64(size) > uint64(len(pc.Members)-i) {
			return nil, fmt.Errorf("persist: block %d of size %d", b, size)
		}
		v, label := int64(-1), uint32(0)
		for j, gap := range pc.Members[i : i+int(size)] {
			switch v += int64(gap); {
			case gap == 0 || v >= int64(n) || c.Label[v] == 0:
				return nil, fmt.Errorf("persist: block %d holds %d, not a live dnode", b, v)
			case j > 0 && c.Label[v] != label:
				return nil, fmt.Errorf("persist: block %d is not label-pure at dnode %d", b, v)
			case p.Block(graph.NodeID(v)) != partition.NoBlock:
				return nil, fmt.Errorf("persist: dnode %d is in two blocks", v)
			}
			label = c.Label[v]
			p.SetBlock(graph.NodeID(v), int32(b))
		}
		i += int(size)
	}
	for _, l := range c.Label {
		if l != 0 {
			live++
		}
	}
	if i != len(pc.Members) || i != live {
		return nil, fmt.Errorf("persist: partition holds %d of %d members, graph has %d live dnodes", i, len(pc.Members), live)
	}
	p.SetNumBlocks(len(pc.Sizes))
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

// gzipped runs save through a gzip layer over w, at gzip.BestSpeed. A
// save that fails is not closed, so one that fails before its first byte
// leaves w untouched.
func gzipped(w io.Writer, save func(io.Writer) error) error {
	zw, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
	if err != nil {
		return err
	}
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
	var one *partCols
	var ak []*partCols
	if db.One != nil {
		one = new(partCols).add(db.One.ToPartition().Blocks()...)
	}
	if db.Ak != nil {
		for l := 0; l <= db.Ak.K(); l++ {
			ak = append(ak, new(partCols).add(db.Ak.ToPartition(l).Blocks()...))
		}
	}
	return writeDatabase(w, db.Graph.Columns(), one, ak)
}

// writeDatabase is the one writer of a "database" stream: hasOne, hasAk,
// the graph, then the 1-index partition and the A(k) family (k, then its
// k+1 level partitions), each if present.
func writeDatabase(w io.Writer, g *graph.Columns, one *partCols, ak []*partCols) error {
	parts := []any{one != nil, ak != nil, g}
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

// stream is a decoded "database" stream: columns, nothing built yet.
type stream struct {
	graph   *graph.Columns
	one, ak bool
	parts   []*partCols // the 1-index partition, then the A(k) family's k+1 levels
}

// LoadDatabase reads a stream written by SaveDatabase or SaveSnapshot, of
// either version. The indexes are bound to the loaded graph.
func LoadDatabase(r io.Reader) (*Database, error) {
	s, err := decodeDatabase(r)
	if err != nil {
		return nil, err
	}
	return s.build()
}

func decodeDatabase(r io.Reader) (*stream, error) {
	dec := gob.NewDecoder(r)
	v, err := readHeader(dec, "database")
	if err != nil {
		return nil, err
	}
	s := &stream{}
	for _, has := range []*bool{&s.one, &s.ak} {
		if err := dec.Decode(has); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
	}
	if s.graph, err = decodePart(dec, v, (*graphDTO).columns); err != nil {
		return nil, err
	}
	next := func() error {
		pc, err := decodePart(dec, v, (*partitionDTO).cols)
		s.parts = append(s.parts, pc)
		return err
	}
	if s.one { // a 1-index is persisted as its dnode partition
		err = next()
	}
	if s.ak && err == nil { // an A(k) family as k, then its k+1 level partitions
		var k *int
		if k, err = decode[int](dec); err == nil && (*k < 1 || *k > 1<<16) {
			return nil, fmt.Errorf("persist: implausible k=%d", *k)
		}
		for l := 0; err == nil && l <= *k; l++ {
			err = next()
		}
	}
	return s, err
}

// build checks every partition against the graph columns, then builds the
// graph and the indexes over it.
func (s *stream) build() (*Database, error) {
	ps := make([]*partition.Partition, len(s.parts))
	for i, pc := range s.parts {
		var err error
		if ps[i], err = pc.partition(s.graph); err != nil {
			return nil, err
		}
	}
	g, err := graph.FromColumns(s.graph)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	db := &Database{Graph: g}
	if s.one {
		if db.One, err = oneindex.FromPartition(g, ps[0]); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		ps = ps[1:]
	}
	if s.ak {
		db.Ak = akindex.FromLevels(g, ps)
	}
	return db, nil
}
