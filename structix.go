// Package structix is a from-scratch Go implementation of incrementally
// maintained XML structural indexes, reproducing Yi, He, Stanoi and Yang,
// "Incremental Maintenance of XML Structural Indexes" (SIGMOD 2004).
//
// It provides:
//
//   - a graph data model for XML and other semistructured data, with an
//     XML loader/writer (ParseXML, WriteXML) built on encoding/xml;
//   - the 1-index (bisimulation structural index) with the paper's
//     split/merge incremental maintenance under edge insertion, edge
//     deletion, and subgraph addition/deletion — always minimal, and
//     minimum on acyclic data (Theorem 1);
//   - the A(k)-index family A(0..k) with refinement-tree organization and
//     split/merge maintenance that keeps the unique minimum family on any
//     data, cyclic or not (Theorem 2);
//   - the competing baselines the paper evaluates (propagate, index
//     reconstruction, the simple A(k) algorithm), plus the strong
//     DataGuide and an incrementally maintained D(k)-index (the extension
//     the paper's conclusion conjectures);
//   - a path-expression engine (labels, *, //, predicates) that evaluates
//     directly, or on an immutable Snapshot of either index family
//     (precise on a 1-index, validated beyond k on A(k)), or value-first
//     through an inverted value index — with a cost-based Planner ranking
//     the exact routes over snapshots pinned at one read point; every
//     snapshot read runs one compiled automaton program (CompilePath);
//   - persistence (versioned binary, optional gzip), textual update
//     scripts, and one store for concurrent use, DB: serialized writers
//     publish immutable epoch snapshots of either index family, so reads
//     are lock-free and never block on maintenance (NewDB in memory, Open
//     durable with a write-ahead log and crash recovery); batch updates
//     are atomic on every surface — a rejected batch (*BatchError) leaves
//     graph and index untouched;
//   - XMark- and IMDB-shaped dataset generators and the full experiment
//     harness regenerating every figure and table of the paper (§7).
//
// # Quick start
//
//	g, err := structix.ParseXMLString(doc)
//	idx := structix.BuildOneIndex(g)
//	s := idx.Freeze(g.Freeze()) // an immutable read view of index and graph
//	hits := structix.EvalSnapshot(structix.MustParsePath("//person/name"), s)
//	err = idx.InsertEdge(u, v, structix.IDRef) // index stays minimal
//
// The exported names are aliases of the implementation packages under
// internal/, so the full method sets documented there are available on the
// types below.
package structix

import (
	"context"
	"io"

	"structix/internal/akindex"
	"structix/internal/baseline"
	"structix/internal/datagen"
	"structix/internal/dataguide"
	"structix/internal/dkindex"
	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/opscript"
	"structix/internal/partition"
	"structix/internal/persist"
	"structix/internal/query"
	"structix/internal/snap"
	"structix/internal/valindex"
	"structix/internal/workload"
	"structix/internal/xmlload"
)

// Graph is the directed labeled data-graph model of §3 (see
// internal/graph for the full API: node/edge mutation, traversal,
// validation, DOT export).
type Graph = graph.Graph

// NodeID identifies a data node (dnode).
type NodeID = graph.NodeID

// EdgeKind distinguishes object-subobject (Tree) from IDREF edges.
type EdgeKind = graph.EdgeKind

// Edge kinds.
const (
	Tree  = graph.Tree
	IDRef = graph.IDRef
)

// InvalidNode is the sentinel "no node" value.
const InvalidNode = graph.InvalidNode

// Subgraph is a detached rooted subgraph for the batched subgraph
// operations of §5.2.
type Subgraph = graph.Subgraph

// EdgeOp is one edge update inside a batch. Build batches with InsertOp
// and DeleteOp and apply them with ApplyBatch on either index family: the
// whole batch shares one split phase and one deferred minimization pass.
type EdgeOp = graph.EdgeOp

// BatchError reports the operation that made ApplyBatch reject a batch
// atomically: OpIndex is the position in the ops slice, Op the operation,
// and Err the cause (ErrEdgeExists, ErrNoEdge, ErrSelfLoop, ErrDeadNode —
// retrievable with errors.Is).
type BatchError = graph.BatchError

// ErrDeadNode is the BatchError cause for operations naming a node that
// is not live in the graph.
var ErrDeadNode = graph.ErrDeadNode

// ErrBadSubgraph is the cause when AddSubgraph, or the replay of a
// journaled graft, gets a Subgraph whose parts disagree (an edge naming a
// local node it does not have, or fewer values or edge kinds than nodes
// or edges): nothing is applied.
var ErrBadSubgraph = graph.ErrBadSubgraph

// InsertOp describes the insertion of dedge u→v for ApplyBatch.
func InsertOp(u, v NodeID, kind EdgeKind) EdgeOp { return graph.InsertOp(u, v, kind) }

// DeleteOp describes the deletion of dedge u→v for ApplyBatch.
func DeleteOp(u, v NodeID) EdgeOp { return graph.DeleteOp(u, v) }

// NewGraph creates an empty data graph.
func NewGraph() *Graph { return graph.New() }

// Extract captures the subtree rooted at root (following only tree edges
// when skipIDRef is set) together with its boundary-crossing edges.
func Extract(g *Graph, root NodeID, skipIDRef bool) *Subgraph {
	return graph.Extract(g, root, skipIDRef)
}

// ---- XML ----

// XMLLoader accumulates multiple XML documents into one data graph.
type XMLLoader = xmlload.Loader

// NewXMLLoader creates a loader with an empty database graph.
func NewXMLLoader() *XMLLoader { return xmlload.NewLoader() }

// ParseXML parses each reader as one XML document and combines them into a
// single data graph under an artificial ROOT, resolving id/idref(s)
// attributes into IDREF edges.
func ParseXML(readers ...io.Reader) (*Graph, error) { return xmlload.Parse(readers...) }

// ParseXMLString parses a single XML document from a string.
func ParseXMLString(doc string) (*Graph, error) { return xmlload.ParseString(doc) }

// WriteXML serializes the graph back to XML (tree edges as nesting, IDREF
// edges as idref attributes).
func WriteXML(g *Graph, w io.Writer) error { return xmlload.Write(g, w) }

// ---- extent storage ----

// ExtentCodec selects the representation snapshots freeze extents into:
// ExtentsDense ([]NodeID slices, the default) or ExtentsCompressed
// (delta-varint runs with bitmap blocks for dense regions, chosen
// per-extent by density — see internal/extent). The live indexes always
// maintain dense extents; the codec only changes what Freeze and
// PatchSnapshot publish, so maintenance cost is unaffected.
type ExtentCodec = extent.Codec

// Extent codecs.
const (
	ExtentsDense      = extent.Dense
	ExtentsCompressed = extent.Compressed
)

// ParseExtentCodec reads a codec name ("dense", "compressed") as spelled
// on command lines.
func ParseExtentCodec(s string) (ExtentCodec, error) { return extent.ParseCodec(s) }

// ---- index snapshots ----

// Snapshot is an immutable point-in-time view of an index of either
// family and its data graph: what DB publishes and every reader
// evaluates against. See internal/snap for the read API and the aliasing
// contract (extent and successor slices are shared, read-only). A 1-index
// snapshot is precise for every path; an A(k) snapshot reports
// Bounded() and its K, and evaluation validates what it cannot decide.
type Snapshot = snap.Snapshot

// INodeID identifies an inode slot of either index family.
type INodeID = snap.ID

// OneSnapshot, AkSnapshot, OneINodeID and AkINodeID are the names the two
// families' snapshot and inode-id types had when they were distinct.
type (
	OneSnapshot = Snapshot
	AkSnapshot  = Snapshot
	OneINodeID  = INodeID
	AkINodeID   = INodeID
)

// ---- 1-index ----

// OneIndex is the bisimulation 1-index with split/merge maintenance (§5).
type OneIndex = oneindex.Index

// BuildOneIndex constructs the minimum 1-index of g.
func BuildOneIndex(g *Graph) *OneIndex { return oneindex.Build(g) }

// ---- A(k)-index ----

// AkIndex is the A(0..k) index family with refinement-tree organization
// and split/merge maintenance (§6).
type AkIndex = akindex.Index

// AkStorage is the Table 3 storage report.
type AkStorage = akindex.Storage

// BuildAkIndex constructs the minimum A(0..k) family of g.
func BuildAkIndex(g *Graph, k int) *AkIndex { return akindex.Build(g, k) }

// ---- baselines ----

// Propagate is the split-only 1-index maintainer of Kaushik et al. with
// optional reconstruction (the paper's main 1-index baseline).
type Propagate = baseline.Propagate

// NewPropagate wraps an index in a propagate maintainer; threshold > 0
// enables the 5%-style reconstruction trigger.
func NewPropagate(x *OneIndex, threshold float64) *Propagate {
	return baseline.NewPropagate(x, threshold)
}

// SimpleAk is the simple stand-alone A(k) maintainer of Qun et al. (the
// paper's A(k) baseline).
type SimpleAk = baseline.SimpleAk

// NewSimpleAk builds a stand-alone A(k)-index with simple maintenance.
func NewSimpleAk(g *Graph, k int, threshold float64) *SimpleAk {
	return baseline.NewSimpleAk(g, k, threshold)
}

// ReconstructOneIndex rebuilds a 1-index with the index-graph
// reconstruction of Kaushik et al., recovering the minimum.
func ReconstructOneIndex(x *OneIndex) *OneIndex { return baseline.ReconstructOneIndex(x) }

// ---- queries ----

// Path is a parsed path expression (labels, *, / and // steps).
type Path = query.Path

// ParsePath parses a path expression such as "/site//person/name".
func ParsePath(expr string) (*Path, error) { return query.Parse(expr) }

// MustParsePath parses a known-good expression, panicking on error.
func MustParsePath(expr string) *Path { return query.MustParse(expr) }

// EvalGraph evaluates a path expression by direct graph traversal.
func EvalGraph(p *Path, g *Graph) []NodeID { return query.EvalGraph(p, g) }

// Planner ranks the exact evaluation routes (value index, precise A(k),
// validated A(k), 1-index, direct traversal) by estimated cost for each
// expression, over whichever snapshots it holds of one read point, and
// picks the cheapest.
type Planner = query.Planner

// QueryPlan is a chosen strategy with an EXPLAIN-style rationale.
type QueryPlan = query.Plan

// Evaluation strategies a Planner can choose.
const (
	StrategyValueIndex  = query.StrategyValueIndex
	StrategyAkLevel     = query.StrategyAkLevel
	StrategyAkValidated = query.StrategyAkValidated
	StrategyOneIndex    = query.StrategyOneIndex
	StrategyDirect      = query.StrategyDirect
)

// ValueIndex is the inverted value index (value → dnodes), used directly
// or as a Planner accelerator for value predicates.
type ValueIndex = valindex.Index

// BuildValueIndex indexes every non-empty node value of g.
func BuildValueIndex(g *Graph) *ValueIndex { return valindex.Build(g) }

// EvalSnapshot evaluates a path expression against an index snapshot of
// either family — exact, including predicates, with no access to mutable
// state: an A(k) snapshot's candidates are validated against its frozen
// graph when the expression is longer than the index is precise for.
func EvalSnapshot(p *Path, s *Snapshot) []NodeID { return query.EvalSnapshot(p, s) }

// EvalSnapshotCtx is EvalSnapshot under a context: cancellation is
// observed between extent unions and between validation candidates, and
// evaluation stops with ctx.Err() and no partial result. Passing
// context.Background() (or nil) keeps the uncancellable behavior and
// allocation profile of EvalSnapshot.
func EvalSnapshotCtx(ctx context.Context, p *Path, s *Snapshot) ([]NodeID, error) {
	return query.EvalSnapshotCtx(ctx, p, s)
}

// SnapshotCandidates returns the raw answer of p's skeleton on s, before
// validation and predicate checks: exact on a 1-index, and on an A(k)
// snapshot a safe superset whose surplus is the false positives
// EvalSnapshot's validation removes.
func SnapshotCandidates(p *Path, s *Snapshot) []NodeID { return query.SnapshotCandidates(p, s) }

// CountSnapshot returns the exact result size of p from an index snapshot.
func CountSnapshot(p *Path, s *Snapshot) int { return query.CountSnapshot(p, s) }

// CountSnapshotCtx is CountSnapshot under a context.
func CountSnapshotCtx(ctx context.Context, p *Path, s *Snapshot) (int, error) {
	return query.CountSnapshotCtx(ctx, p, s)
}

// Selectivity returns the fraction of dnodes matching p's skeleton
// (predicates stripped), computed from s's extent sizes without touching
// the data graph: exact on a 1-index snapshot, an upper bound on A(k) —
// the synopsis use of structural indexes (§1).
func Selectivity(p *Path, s *Snapshot) float64 { return query.Selectivity(p, s) }

// CompiledPath is a path expression compiled to a chain of automata (DFA
// with an NFA fallback) — the program every snapshot read runs. Compile
// once for repeated evaluation over epoch snapshots; see query.Compiled
// for the evaluation methods.
type CompiledPath = query.Compiled

// CompilePath compiles p for the snapshot read path. Every path compiles;
// the error result is always nil.
func CompilePath(p *Path) (*CompiledPath, error) { return query.Compile(p) }

// ---- DataGuide ----

// DataGuide is the strong DataGuide of Goldman & Widom — the related-work
// summary the 1-index improves on (§2). Exact for path queries, but
// potentially exponential on non-tree data.
type DataGuide = dataguide.Guide

// ErrDataGuideTooLarge is returned when subset construction exceeds the
// state budget.
var ErrDataGuideTooLarge = dataguide.ErrTooLarge

// BuildDataGuide constructs the strong DataGuide with the given state
// budget (≤ 0 for a default).
func BuildDataGuide(g *Graph, maxStates int) (*DataGuide, error) {
	return dataguide.Build(g, maxStates)
}

// ---- D(k)-index ----

// DkIndex is the adaptive D(k)-index of Qun et al., maintained
// incrementally as a cut over the A(0..kmax) family — the extension §8 of
// the paper conjectures (see internal/dkindex for the derivation).
type DkIndex = dkindex.Index

// DkConfig assigns per-label locality targets for a D(k)-index.
type DkConfig = dkindex.Config

// BuildDkIndex constructs an incrementally maintained D(k)-index.
func BuildDkIndex(g *Graph, cfg DkConfig) (*DkIndex, error) {
	return dkindex.Build(g, cfg)
}

// ---- datasets and workloads ----

// XMarkConfig configures the XMark-shaped generator.
type XMarkConfig = datagen.XMarkConfig

// IMDBConfig configures the IMDB-shaped generator.
type IMDBConfig = datagen.IMDBConfig

// GenerateXMark builds an auction-site graph with the given cyclicity.
func GenerateXMark(cfg XMarkConfig) *Graph { return datagen.XMark(cfg) }

// DefaultXMark scales the paper's XMark instance down by scale.
func DefaultXMark(scale int, cyclicity float64, seed int64) XMarkConfig {
	return datagen.DefaultXMark(scale, cyclicity, seed)
}

// GenerateIMDB builds a movie-database graph with clustered IDREF cycles.
func GenerateIMDB(cfg IMDBConfig) *Graph { return datagen.IMDB(cfg) }

// DefaultIMDB scales the paper's IMDB extract down by scale.
func DefaultIMDB(scale int, seed int64) IMDBConfig { return datagen.DefaultIMDB(scale, seed) }

// MixedUpdateScript prepares the §7.1 mixed workload: it moves removeFrac
// of g's IDREF edges into an insertion pool (removing them from g) and
// returns a deterministic script of IDREF insert/delete pairs.
func MixedUpdateScript(g *Graph, removeFrac float64, pairs int, seed int64) []EdgeOp {
	return workload.MixedScript(g, removeFrac, pairs, seed)
}

// MinimumOneIndexSize computes the number of inodes in the minimum 1-index
// of g by from-scratch construction (the denominator of the paper's
// quality metric).
func MinimumOneIndexSize(g *Graph) int {
	return partition.CoarsestStable(g, partition.ByLabel(g)).NumBlocks()
}

// MinimumAkIndexSize computes the number of inodes in the minimum
// A(k)-index of g by from-scratch construction.
func MinimumAkIndexSize(g *Graph, k int) int {
	return partition.KBisimLevels(g, k)[k].NumBlocks()
}

// ---- persistence ----
//
// The free functions below are the file-format layer: explicit one-shot
// save/load of a database stream. For a store that stays durable while
// serving — write-ahead journaling, crash recovery, background
// compaction — use Open, which owns the whole lifecycle; these remain
// for import/export and as the snapshot format Open itself writes.

// Database bundles a graph with its (optional) indexes for persistence.
type Database = persist.Database

// SaveDatabase writes a graph and its indexes to a versioned binary stream.
//
// Deprecated-ish: for durable serving use Open (which persists
// automatically); SaveDatabase remains the explicit export format.
func SaveDatabase(w io.Writer, db *Database) error { return persist.SaveDatabase(w, db) }

// LoadDatabase reads a stream written by SaveDatabase; the loaded indexes
// are bound to the loaded graph and ready for maintained updates.
//
// Deprecated-ish: for durable serving use Open (which recovers
// automatically); LoadDatabase remains the explicit import path.
func LoadDatabase(r io.Reader) (*Database, error) { return persist.LoadDatabase(r) }

// SaveSnapshot writes a database stream (LoadDatabase-compatible) from an
// immutable epoch snapshot instead of live structures — no lock needed
// for the duration of the write. This is what DB's compactor uses. The
// stream holds a 1-index: an A(k) snapshot is rejected with
// ErrBoundedSnapshot.
func SaveSnapshot(w io.Writer, s *Snapshot) error { return persist.SaveSnapshot(w, s) }

// SaveSnapshotCompressed is SaveSnapshot through gzip.
func SaveSnapshotCompressed(w io.Writer, s *Snapshot) error {
	return persist.SaveSnapshotCompressed(w, s)
}

// ErrBoundedSnapshot is what SaveSnapshot returns for an A(k) snapshot.
var ErrBoundedSnapshot = persist.ErrBoundedSnapshot

// SaveDatabaseCompressed is SaveDatabase through gzip.
func SaveDatabaseCompressed(w io.Writer, db *Database) error {
	return persist.SaveDatabaseCompressed(w, db)
}

// LoadDatabaseAuto loads a database stream whether or not it is gzipped.
func LoadDatabaseAuto(r io.Reader) (*Database, error) { return persist.LoadDatabaseAuto(r) }

// SaveGraph writes just the data graph, preserving NodeIDs exactly.
func SaveGraph(w io.Writer, g *Graph) error { return persist.SaveGraph(w, g) }

// LoadGraph reads a graph written by SaveGraph.
func LoadGraph(r io.Reader) (*Graph, error) { return persist.LoadGraph(r) }

// ---- update scripts ----

// ScriptOp is one operation of a textual update script (see
// internal/opscript for the format).
type ScriptOp = opscript.Op

// The kinds a ScriptOp's Kind takes: ScriptInsert and ScriptDelete act on
// the edge U→V (an insertion's edge kind is Edge); ScriptAddNode adds a
// node labelled Label under V; ScriptDelNode and ScriptDelSub remove U,
// alone or with its subtree.
const (
	ScriptInsert  = opscript.Insert
	ScriptDelete  = opscript.Delete
	ScriptAddNode = opscript.AddNode
	ScriptDelNode = opscript.DelNode
	ScriptDelSub  = opscript.DelSub
)

// OpResult summarizes an applied script.
type OpResult = opscript.Result

// ParseOps reads an update script.
func ParseOps(r io.Reader) ([]ScriptOp, error) { return opscript.Parse(r) }

// FormatOps writes an update script.
func FormatOps(w io.Writer, ops []ScriptOp) error { return opscript.Format(w, ops) }

// GenerateMixedOps produces a mixed edge-update script valid against the
// graph as it stands (no preparatory mutation).
func GenerateMixedOps(g *Graph, pairs int, seed int64) []ScriptOp {
	edges := workload.InPlaceScript(g, pairs, seed)
	ops := make([]ScriptOp, len(edges))
	for i, op := range edges {
		ops[i] = opscript.FromEdgeOp(op)
	}
	return ops
}

// ApplyOps runs a script against one maintained index (either family).
func ApplyOps(x opscript.Target, ops []ScriptOp) (OpResult, error) {
	return opscript.Apply(x, ops)
}

// ApplyOpsShared runs an edge-update script against several indexes
// sharing one graph: each graph mutation happens once, every index follows
// incrementally.
func ApplyOpsShared(g *Graph, ops []ScriptOp, targets ...opscript.EdgeTarget) (OpResult, error) {
	return opscript.ApplyShared(g, ops, targets...)
}
