package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"structix"
	"structix/internal/qcache"
	"structix/internal/repl"
)

// metrics is the server's observability state: request counters, latency
// histograms, commit-pipeline gauges, and the snapshot epoch/age pair.
// Everything is lock-free (atomic counters), so the hot paths pay a few
// atomic adds per request and /metrics never blocks serving.

// latency histogram buckets: powers of two from 1µs to ~4s, then +Inf.
const histBuckets = 23

var histBoundNs = func() [histBuckets]int64 {
	var b [histBuckets]int64
	ns := int64(1000) // 1µs
	for i := 0; i < histBuckets; i++ {
		b[i] = ns
		ns *= 2
	}
	return b
}()

// histogram is a fixed-bucket latency histogram with atomic counters.
type histogram struct {
	counts [histBuckets + 1]atomic.Int64 // counts[i] covers (bound[i-1], bound[i]]; last is +Inf
	sumNs  atomic.Int64
	n      atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ns := d.Nanoseconds()
	h.sumNs.Add(ns)
	h.n.Add(1)
	for i := 0; i < histBuckets; i++ {
		if ns <= histBoundNs[i] {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[histBuckets].Add(1)
}

// quantileUs is the upper bound, in microseconds, of the bucket holding
// the q-quantile (0 before the first observation; +Inf reads as the last).
func (h *histogram) quantileUs(q float64) int64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	i, cum, rank := 0, int64(0), int64(q*float64(n-1))+1
	for ; i < histBuckets-1; i++ {
		if cum += h.counts[i].Load(); cum >= rank {
			break
		}
	}
	return histBoundNs[i] / 1000
}

// writeProm emits the histogram in Prometheus exposition format with
// cumulative buckets; labels may be empty.
func (h *histogram) writeProm(w io.Writer, name, labels string) {
	sep := ","
	if labels == "" {
		sep = ""
	}
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, float64(histBoundNs[i])/1e9, cum)
	}
	cum += h.counts[histBuckets].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.n.Load())
}

type metrics struct {
	started time.Time

	queries     atomic.Int64 // /v1/query requests answered (any status)
	updates     atomic.Int64 // /v1/update requests admitted and answered
	rejected    atomic.Int64 // 429s from admission control
	badRequests atomic.Int64 // 400s from the decoders
	canceled    atomic.Int64 // queries abandoned via context cancellation
	staleReads  atomic.Int64 // 504s: min_epoch waits that timed out on a replica
	notLeader   atomic.Int64 // 421s: writes redirected to the leader

	queryLat  histogram
	updateLat histogram
	queueWait histogram // a write's first stage: submit → its window starts applying

	batches    atomic.Int64 // committed ApplyBatch calls
	batchedOps atomic.Int64 // edge ops across all committed batches
	scripts    atomic.Int64 // node/subtree scripts applied standalone

	// epoch counts snapshot publications across all shards (the value
	// served as "the" epoch on the wire); epochs is the per-shard vector
	// behind it, one publication counter per commit pipeline.
	epoch       atomic.Uint64
	epochs      []atomic.Uint64
	publishedNs atomic.Int64 // unix nanos of the last snapshot publication
}

func newMetrics(shards int) *metrics {
	if shards < 1 {
		shards = 1
	}
	m := &metrics{started: time.Now(), epochs: make([]atomic.Uint64, shards)}
	m.publishedNs.Store(time.Now().UnixNano())
	return m
}

// bumpEpoch records a snapshot publication on one shard and returns the
// new global epoch.
func (m *metrics) bumpEpoch(shard int) uint64 {
	m.publishedNs.Store(time.Now().UnixNano())
	m.epochs[shard].Add(1)
	return m.epoch.Add(1)
}

func (m *metrics) snapshotAge() time.Duration {
	return time.Duration(time.Now().UnixNano() - m.publishedNs.Load())
}

func (m *metrics) meanBatchSize() float64 {
	b := m.batches.Load()
	if b == 0 {
		return 0
	}
	return float64(m.batchedOps.Load()) / float64(b)
}

// counter and gauge emit one unlabeled sample with its HELP/TYPE header.
func counter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func gauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// writeProm emits every metric in Prometheus exposition format.
func (m *metrics) writeProm(w io.Writer, queueDepth, queueCap int) {
	counter(w, "structix_query_requests_total", "path-expression queries served", m.queries.Load())
	counter(w, "structix_update_requests_total", "update requests admitted", m.updates.Load())
	counter(w, "structix_rejected_requests_total", "updates shed by admission control (429)", m.rejected.Load())
	counter(w, "structix_bad_requests_total", "malformed requests (400)", m.badRequests.Load())
	counter(w, "structix_canceled_queries_total", "queries abandoned by the client mid-evaluation", m.canceled.Load())

	fmt.Fprintf(w, "# HELP structix_request_duration_seconds request latency by handler\n")
	fmt.Fprintf(w, "# TYPE structix_request_duration_seconds histogram\n")
	m.queryLat.writeProm(w, "structix_request_duration_seconds", `handler="query"`)
	m.updateLat.writeProm(w, "structix_request_duration_seconds", `handler="update"`)

	fmt.Fprintf(w, "# HELP structix_update_queue_wait_seconds time an admitted update waited for its commit window to start applying\n# TYPE structix_update_queue_wait_seconds histogram\n")
	m.queueWait.writeProm(w, "structix_update_queue_wait_seconds", "")
	counter(w, "structix_commit_batches_total", "group commits applied via ApplyBatch", m.batches.Load())
	counter(w, "structix_commit_ops_total", "edge ops across all group commits", m.batchedOps.Load())
	counter(w, "structix_commit_scripts_total", "node/subtree scripts applied standalone", m.scripts.Load())
	gauge(w, "structix_commit_batch_size_mean", "mean ops per group commit", m.meanBatchSize())

	gauge(w, "structix_snapshot_epoch", "commit epoch of the published snapshot", float64(m.epoch.Load()))
	gauge(w, "structix_snapshot_age_seconds", "age of the published snapshot", m.snapshotAge().Seconds())
	if len(m.epochs) > 1 {
		gauge(w, "structix_shards", "commit pipelines (shards) in the store", float64(len(m.epochs)))
		fmt.Fprintf(w, "# HELP structix_shard_snapshot_epoch per-shard commit epoch\n")
		fmt.Fprintf(w, "# TYPE structix_shard_snapshot_epoch gauge\n")
		for s := range m.epochs {
			fmt.Fprintf(w, "structix_shard_snapshot_epoch{shard=\"%d\"} %d\n", s, m.epochs[s].Load())
		}
	}

	gauge(w, "structix_update_queue_depth", "updates waiting for the commit loop", float64(queueDepth))
	gauge(w, "structix_update_queue_capacity", "admission queue capacity", float64(queueCap))
	gauge(w, "structix_uptime_seconds", "time since the server started", time.Since(m.started).Seconds())
}

// writeCacheProm emits the query-result-cache and compiled-program
// counters (all zero when the cache is disabled).
func writeCacheProm(w io.Writer, cs qcache.Stats, programs int) {
	counter(w, "structix_qcache_hits_total", "queries served from the result cache", cs.Hits)
	counter(w, "structix_qcache_misses_total", "result-cache lookups that evaluated", cs.Misses)
	counter(w, "structix_qcache_invalidated_total", "cache entries evicted by commits", cs.Invalidated)
	counter(w, "structix_qcache_evicted_total", "cache entries evicted by the LRU bound", cs.Evicted)
	counter(w, "structix_qcache_stale_puts_total", "results dropped for racing a commit", cs.StalePuts)
	gauge(w, "structix_qcache_entries", "live result-cache entries", float64(cs.Entries))
	gauge(w, "structix_qcache_footprint_slots", "inode slots held in live entries' invalidation footprints", float64(cs.FootprintSlots))
	gauge(w, "structix_qcache_hit_rate", "hits / lookups since start", cs.HitRate())
	gauge(w, "structix_compiled_programs", "compiled path automata cached", float64(programs))
}

// writeExtentProm emits the resident extent storage of the current
// snapshot, labeled by representation, plus the configured codec as an
// info-style gauge.
func writeExtentProm(w io.Writer, codec string, denseBytes, encodedBytes int64) {
	fmt.Fprintf(w, "# HELP structix_extent_bytes resident snapshot extent storage by representation\n# TYPE structix_extent_bytes gauge\n")
	fmt.Fprintf(w, "structix_extent_bytes{repr=\"dense\"} %d\n", denseBytes)
	fmt.Fprintf(w, "structix_extent_bytes{repr=\"encoded\"} %d\n", encodedBytes)
	fmt.Fprintf(w, "# HELP structix_extent_codec configured snapshot extent codec\n# TYPE structix_extent_codec gauge\nstructix_extent_codec{codec=%q} 1\n", codec)
}

// writeReplProm emits the replication metrics: the node's role, stream
// traffic when it leads, lag when it follows, and the redirect/stale
// counters either role can accumulate. Emitted only when replication is
// wired up (a durable single-shard store).
func (m *metrics) writeReplProm(w io.Writer, ls *repl.LeaderStats, fs *repl.FollowerStats) {
	role := "leader"
	if fs != nil {
		role = "follower"
	}
	fmt.Fprintf(w, "# HELP structix_repl_role replication role of this process\n# TYPE structix_repl_role gauge\nstructix_repl_role{role=%q} 1\n", role)
	counter(w, "structix_repl_not_leader_total", "writes redirected to the leader (421)", m.notLeader.Load())
	counter(w, "structix_repl_stale_reads_total", "min_epoch reads that timed out stale (504)", m.staleReads.Load())
	if ls != nil {
		gauge(w, "structix_repl_active_streams", "follower streams currently attached", float64(ls.ActiveStreams))
		counter(w, "structix_repl_streams_started_total", "follower stream connections accepted", ls.StreamsStarted)
		counter(w, "structix_repl_frames_shipped_total", "journal frames shipped to followers", ls.FramesShipped)
		counter(w, "structix_repl_bytes_shipped_total", "stream bytes shipped to followers", ls.BytesShipped)
		counter(w, "structix_repl_snapshots_served_total", "bootstrap snapshots served", ls.SnapshotsServed)
		counter(w, "structix_repl_gap_rejects_total", "stream requests refused for a compacted resume point", ls.GapRejects)
	}
	if fs != nil {
		gauge(w, "structix_repl_lag_seq", "journal records behind the leader", float64(fs.LagSeq))
		gauge(w, "structix_repl_lag_seconds", "seconds since the follower last made progress (0 when caught up)", fs.LagSeconds)
		gauge(w, "structix_repl_applied_seq", "newest journal seq applied from the stream", float64(fs.AppliedSeq))
		gauge(w, "structix_repl_leader_seq", "newest leader position observed", float64(fs.LeaderSeq))
		counter(w, "structix_repl_reconnects_total", "stream reconnect attempts after the first", fs.Reconnects)
		counter(w, "structix_repl_frames_applied_total", "journal frames applied from the stream", fs.FramesApplied)
		resync := 0.0
		if fs.ResyncRequired {
			resync = 1
		}
		gauge(w, "structix_repl_resync_required", "1 when the follower fell behind the compacted tail and must re-bootstrap", resync)
	}
}

// writeDurabilityProm emits the store's write-ahead-log counters; a
// single 0 gauge when the server fronts an in-memory DB.
func writeDurabilityProm(w io.Writer, ds structix.DBStats) {
	if !ds.Durable {
		gauge(w, "structix_durable", "1 when the store journals to a write-ahead log", 0)
		return
	}
	gauge(w, "structix_durable", "1 when the store journals to a write-ahead log", 1)
	gauge(w, "structix_wal_applied_seq", "journal seq of the last applied record", float64(ds.AppliedSeq))
	gauge(w, "structix_wal_durable_seq", "newest journal seq known fsynced", float64(ds.DurableSeq))
	gauge(w, "structix_wal_snapshot_seq", "journal coverage of the newest on-disk snapshot", float64(ds.SnapshotSeq))
	gauge(w, "structix_wal_segments", "live journal segment files", float64(ds.JournalSegments))
	gauge(w, "structix_wal_bytes", "bytes across live journal segments", float64(ds.JournalBytes))
	counter(w, "structix_wal_appends_total", "journal records appended", ds.JournalAppends)
	counter(w, "structix_wal_syncs_total", "journal fsyncs issued", ds.JournalSyncs)
	counter(w, "structix_compactions_total", "snapshots written by the compactor", ds.Compactions)
}
