// Command xsi inspects and queries XML databases through their structural
// indexes.
//
// Usage:
//
//	xsi stats    [-v] [-k 3] file.xml [file2.xml ...]
//	xsi query    -expr "//person[name='x']" [-index none|1|ak|auto] [-k 3] file.xml ...
//	xsi validate file.xml ...
//	xsi dot      [-index 1] file.xml ...
//	xsi build    -o db.sx [-k 3] [-z] file.xml ...
//	xsi update   -db db.sx -script ops.txt [-o db2.sx] [-z]
//	xsi genops   -db db.sx -pairs 100 [-seed 1]
//	xsi export   -db db.sx [-o out.xml]
//
// stats prints graph and index sizes (-v adds the extent distribution and
// per-label hot spots); query evaluates a path expression against the data
// graph, the 1-index, the A(k)-index with validation, or — with auto — the
// plan the query planner explains and picks; validate builds both indexes
// and checks every structural invariant; dot writes the data graph (or,
// with -index 1, the index graph) in Graphviz format; build persists the
// graph together with both indexes to a binary database file (-z gzips
// it); update applies an update script of edge, node and subtree ops
// through incremental maintenance and persists the result (a database
// holding both indexes maintains the 1-index and rebuilds the A(k) family
// over the updated graph); genops emits a mixed edge-update script valid
// against the database.
//
// Everywhere an XML file list is accepted, -db db.sx loads a persisted
// database instead (stats/query/validate then reuse the stored indexes
// rather than rebuilding; compression is auto-detected).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"structix"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	expr := fs.String("expr", "", "path expression to evaluate (query)")
	index := fs.String("index", "", "evaluation strategy: none, 1, or ak (query; default 1) — for dot, -index 1 draws the index graph instead of the data graph")
	k := fs.Int("k", 3, "A(k) locality parameter")
	values := fs.Bool("values", false, "print node values with query results")
	out := fs.String("o", "", "output database file (build, update)")
	dbPath := fs.String("db", "", "load a persisted database instead of XML files")
	script := fs.String("script", "", "update script file (update)")
	compress := fs.Bool("z", false, "gzip the database file (build, update -o); loading auto-detects")
	verbose := fs.Bool("v", false, "verbose stats: extent distribution and per-label breakdown")
	pairs := fs.Int("pairs", 100, "update pairs to generate (genops)")
	seed := fs.Int64("seed", 1, "random seed (genops)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	var g *structix.Graph
	var db *structix.Database
	if *dbPath != "" {
		db = loadDB(*dbPath)
		g = db.Graph
	} else {
		files := fs.Args()
		if len(files) == 0 {
			fail("no input files (or use -db)")
		}
		g = load(files)
	}

	switch cmd {
	case "stats":
		stats(g, *k)
		if *verbose {
			verboseStats(g)
		}
	case "query":
		if *expr == "" {
			fail("query requires -expr")
		}
		strategy := *index
		if strategy == "" {
			strategy = "1"
		}
		runQuery(g, db, *expr, strategy, *k, *values)
	case "validate":
		validateDB(g, db, *k)
	case "dot":
		switch *index {
		case "1":
			var one *structix.OneIndex
			if db != nil && db.One != nil {
				one = db.One
			} else {
				one = structix.BuildOneIndex(g)
			}
			if err := one.WriteDOT(os.Stdout); err != nil {
				fail(err.Error())
			}
		default:
			if err := g.WriteDOT(os.Stdout); err != nil {
				fail(err.Error())
			}
		}
	case "build":
		if *out == "" {
			fail("build requires -o")
		}
		build(g, *k, *out, *compress)
	case "update":
		if db == nil {
			fail("update requires -db")
		}
		if *script == "" {
			fail("update requires -script")
		}
		update(db, *script, *out, *compress)
	case "genops":
		genops(g, *pairs, *seed)
	case "export":
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fail(err.Error())
			}
			defer f.Close()
			w = f
		}
		if err := structix.WriteXML(g, w); err != nil {
			fail(err.Error())
		}
	default:
		usage()
	}
}

func update(db *structix.Database, scriptPath, out string, compress bool) {
	f, err := os.Open(scriptPath)
	if err != nil {
		fail(err.Error())
	}
	ops, err := structix.ParseOps(f)
	f.Close()
	if err != nil {
		fail(err.Error())
	}
	switch {
	case db.One != nil && db.Ak != nil:
		// Both indexes share the database graph: maintain the 1-index
		// through the script, then rebuild the A(k) family over the result.
		// The maintained family is the unique minimum on any graph
		// (Theorem 2), so the rebuild is exactly what maintenance would
		// produce, level by level.
		res, err := structix.ApplyOps(db.One, ops)
		if err != nil {
			fail(err.Error())
		}
		db.Ak = structix.BuildAkIndex(db.Graph, db.Ak.K())
		fmt.Printf("applied %d ops (%d inserts, %d deletes, %d new nodes, %d removed) to both indexes: 1-index %d inodes, A(%d) %d inodes\n",
			res.Applied, res.Inserted, res.Deleted, len(res.NewNodes), res.Removed, db.One.Size(), db.Ak.K(), db.Ak.Size())
	case db.One != nil:
		res, err := structix.ApplyOps(db.One, ops)
		if err != nil {
			fail(err.Error())
		}
		fmt.Printf("1-index: applied %d ops (%d inserts, %d deletes, %d new nodes, %d removed); %d inodes\n",
			res.Applied, res.Inserted, res.Deleted, len(res.NewNodes), res.Removed, db.One.Size())
	case db.Ak != nil:
		res, err := structix.ApplyOps(db.Ak, ops)
		if err != nil {
			fail(err.Error())
		}
		fmt.Printf("A(%d)-index: applied %d ops; %d inodes\n", db.Ak.K(), res.Applied, db.Ak.Size())
	default:
		fail("database has no indexes to update")
	}
	if out != "" {
		saveDB(db, out, compress)
		fmt.Printf("wrote %s\n", out)
	}
}

func genops(g *structix.Graph, pairs int, seed int64) {
	ops := structix.GenerateMixedOps(g, pairs, seed)
	if err := structix.FormatOps(os.Stdout, ops); err != nil {
		fail(err.Error())
	}
}

func build(g *structix.Graph, k int, out string, compress bool) {
	db := &structix.Database{
		Graph: g,
		One:   structix.BuildOneIndex(g),
		Ak:    structix.BuildAkIndex(g, k),
	}
	saveDB(db, out, compress)
	fmt.Printf("wrote %s: %d dnodes, 1-index %d inodes, A(%d) %d inodes\n",
		out, g.NumNodes(), db.One.Size(), k, db.Ak.Size())
}

func saveDB(db *structix.Database, out string, compress bool) {
	f, err := os.Create(out)
	if err != nil {
		fail(err.Error())
	}
	defer f.Close()
	if compress {
		err = structix.SaveDatabaseCompressed(f, db)
	} else {
		err = structix.SaveDatabase(f, db)
	}
	if err != nil {
		fail(err.Error())
	}
}

func loadDB(path string) *structix.Database {
	f, err := os.Open(path)
	if err != nil {
		fail(err.Error())
	}
	defer f.Close()
	db, err := structix.LoadDatabaseAuto(f)
	if err != nil {
		fail(err.Error())
	}
	return db
}

func validateDB(g *structix.Graph, db *structix.Database, k int) {
	if db == nil {
		validate(g, k)
		return
	}
	if err := g.Validate(); err != nil {
		fail("graph: " + err.Error())
	}
	if db.One != nil {
		if err := db.One.Validate(); err != nil {
			fail("1-index: " + err.Error())
		}
	}
	if db.Ak != nil {
		if err := db.Ak.Validate(); err != nil {
			fail("A(k)-index: " + err.Error())
		}
	}
	fmt.Println("ok: persisted database validates")
}

func load(files []string) *structix.Graph {
	l := structix.NewXMLLoader()
	for _, f := range files {
		r, err := os.Open(f)
		if err != nil {
			fail(err.Error())
		}
		err = l.LoadDocument(r)
		r.Close()
		if err != nil {
			fail(fmt.Sprintf("%s: %v", f, err))
		}
	}
	if err := l.Resolve(); err != nil {
		fail(err.Error())
	}
	return l.Graph()
}

func stats(g *structix.Graph, k int) {
	fmt.Printf("data graph:    %d dnodes, %d dedges (%d IDREF), acyclic=%v\n",
		g.NumNodes(), g.NumEdges(), g.NumIDRefEdges(), g.IsAcyclic())
	one := structix.BuildOneIndex(g)
	fmt.Printf("1-index:       %d inodes, %d iedges (%.1f%% of graph)\n",
		one.Size(), one.NumIEdges(), 100*float64(one.Size())/float64(g.NumNodes()))
	ak := structix.BuildAkIndex(g, k)
	fmt.Printf("A(%d)-index:    %d inodes", k, ak.Size())
	for l := 0; l <= k; l++ {
		fmt.Printf("  A(%d)=%d", l, ak.SizeAt(l))
	}
	fmt.Println()
	s := ak.MeasureStorage()
	fmt.Printf("A(0..%d) extra storage over stand-alone A(%d): %.1f%%\n", k, k, 100*s.Overhead())
}

// verboseStats prints the extent-size distribution of the 1-index and the
// labels that cost the most inodes — where the structural irregularity
// lives.
func verboseStats(g *structix.Graph) {
	one := structix.BuildOneIndex(g)
	var sizes []int
	type labelStat struct {
		inodes, dnodes int
	}
	byLabel := map[string]*labelStat{}
	for _, i := range one.INodes() {
		sz := one.ExtentSize(i)
		sizes = append(sizes, sz)
		name := g.Labels().Name(one.Label(i))
		st := byLabel[name]
		if st == nil {
			st = &labelStat{}
			byLabel[name] = st
		}
		st.inodes++
		st.dnodes += sz
	}
	sort.Ints(sizes)
	pct := func(p float64) int {
		if len(sizes) == 0 {
			return 0
		}
		i := int(p * float64(len(sizes)-1))
		return sizes[i]
	}
	fmt.Printf("extent sizes:  p50=%d  p90=%d  p99=%d  max=%d\n",
		pct(0.50), pct(0.90), pct(0.99), sizes[len(sizes)-1])

	names := make([]string, 0, len(byLabel))
	for n := range byLabel {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return byLabel[names[i]].inodes > byLabel[names[j]].inodes
	})
	if len(names) > 10 {
		names = names[:10]
	}
	fmt.Println("labels costing the most inodes (irregularity hot spots):")
	for _, n := range names {
		st := byLabel[n]
		fmt.Printf("  %-16s %6d inodes over %6d dnodes (%.2f dnodes/inode)\n",
			n, st.inodes, st.dnodes, float64(st.dnodes)/float64(st.inodes))
	}
}

// runQuery evaluates expr by the chosen strategy. The index strategies
// read snapshots frozen at one read point, of the database's own indexes
// where it stores them; only an index it lacks is built.
func runQuery(g *structix.Graph, db *structix.Database, expr, index string, k int, values bool) {
	p, err := structix.ParsePath(expr)
	if err != nil {
		fail(err.Error())
	}
	var one *structix.OneIndex
	var ak *structix.AkIndex
	if db != nil {
		one, ak = db.One, db.Ak
	}
	data := g.Freeze()
	oneSnap := func() *structix.Snapshot {
		if one == nil {
			one = structix.BuildOneIndex(g)
		}
		return one.Freeze(data)
	}
	akSnap := func() *structix.Snapshot {
		if ak == nil {
			ak = structix.BuildAkIndex(g, k)
		}
		return ak.Freeze(data)
	}
	var result []structix.NodeID
	switch index {
	case "none":
		result = structix.EvalGraph(p, g)
	case "1":
		result = structix.EvalSnapshot(p, oneSnap())
	case "ak":
		result = structix.EvalSnapshot(p, akSnap())
	case "auto":
		pl := &structix.Planner{Data: data, One: oneSnap(), Ak: akSnap()}
		var plan structix.QueryPlan
		result, plan = pl.Eval(p)
		fmt.Printf("plan: %s — %s\n", plan.Strategy, plan.Reason)
	default:
		fail("unknown -index (want none, 1, ak, or auto)")
	}
	printResults(g, p, result, values)
}

func printResults(g *structix.Graph, p *structix.Path, result []structix.NodeID, values bool) {
	fmt.Printf("%d results for %s\n", len(result), p)
	for _, v := range result {
		if values && g.Value(v) != "" {
			fmt.Printf("  #%d %s = %q\n", v, g.LabelName(v), g.Value(v))
		} else {
			fmt.Printf("  #%d %s\n", v, g.LabelName(v))
		}
	}
}

func validate(g *structix.Graph, k int) {
	if err := g.Validate(); err != nil {
		fail("graph: " + err.Error())
	}
	one := structix.BuildOneIndex(g)
	if err := one.Validate(); err != nil {
		fail("1-index: " + err.Error())
	}
	if !one.IsMinimal() {
		fail("1-index: not minimal")
	}
	ak := structix.BuildAkIndex(g, k)
	if err := ak.Validate(); err != nil {
		fail(fmt.Sprintf("A(%d)-index: %v", k, err))
	}
	if !ak.IsMinimal() {
		fail(fmt.Sprintf("A(%d)-index: not minimal", k))
	}
	fmt.Printf("ok: graph, 1-index (%d inodes), A(%d)-index (%d inodes)\n", one.Size(), k, ak.Size())
}

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: xsi {stats|query|validate|dot|build|update|genops|export} [flags] file.xml ... | -db db.sx")
	os.Exit(2)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "xsi: "+msg)
	os.Exit(1)
}
