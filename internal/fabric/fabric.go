// Package fabric is the live retainer-pool node and its multi-node front
// end. A Fabric embeds a server.ShardSet — N independent shards, each with
// its own lock, task queue, worker set, accounting and maintenance state,
// behind the in-process Core that
//
//   - places tasks on shards by consistent hashing of their record content
//     (jump hashing, so a resize relocates the minimum number of keys),
//     with explicit priorities preserved within each shard's queue;
//   - pins workers to shards round-robin on join, so the poll/submit hot
//     path contends only on the worker's home shard;
//   - steals work across shards when the home shard's queue drains —
//     starved tasks anywhere in the fabric are exhausted before any shard
//     hands out a speculative straggler duplicate, so the paper's
//     straggler mitigation operates fabric-wide, not per-shard.
//
// Around that Core the Fabric adds the admin surface (status, worker
// stats, accounting, cross-task consensus and snapshot persistence
// aggregated across shards, health, metrics and the worker UI), the
// journal (OpenPersist), replication and the hybrid learning plane. Router
// and RemoteShard front several nodes over the wire protocol.
//
// Ids are globally unique and shard-addressable: shard s of n allocates
// ids ≡ s+1 (mod n), so routing an id to its shard is (id-1) mod n with no
// shared state. A 1-shard fabric is the single-pool server; its protocol is
// pinned byte-for-byte by testdata/single_shard_compat.golden.
package fabric

import (
	"net/http"
	"sync/atomic"
	"time"

	"github.com/clamshell/clamshell/internal/server"
)

// Fabric is a sharded retainer-pool node. It implements http.Handler:
// the core protocol routes plus the admin surface (status, workers, costs,
// consensus, snapshot/restore, health, metrics and the worker UI).
type Fabric struct {
	*server.ShardSet // the shards and the in-process Core over them

	cfg       server.Config
	mux       *http.ServeMux
	now       func() time.Time
	startedAt time.Time

	// persist is the journal engine (nil until OpenPersist); atomic so
	// handlers can read it while a restore rebuilds or a close tears it
	// down.
	persist atomic.Pointer[persistState]

	// repl is the replication plane (nil until EnableReplication).
	repl atomic.Pointer[replPlane]

	// hybrid is the learning plane (nil until EnableHybrid).
	hybrid hybridPlane
}

// New creates a fabric of n shards (n < 1 is treated as 1). All shards
// share one Config.
func New(cfg server.Config, n int) *Fabric {
	return NewNode(cfg, n, 0, 1)
}

// NewNode creates one node's slice of a multi-node fabric: m local shards
// out of nodeCount×m fabric-wide (see server.NewShardSet for the id
// striping). A nodeCount of 1 is exactly the historical single-node
// fabric, byte-for-byte.
func NewNode(cfg server.Config, m, nodeIndex, nodeCount int) *Fabric {
	f := &Fabric{ShardSet: server.NewShardSet(cfg, m, nodeIndex, nodeCount), cfg: cfg}
	f.now = time.Now
	if cfg.Now != nil {
		f.now = cfg.Now
	}
	f.startedAt = f.now()
	f.mux = http.NewServeMux()
	server.RegisterCoreRoutes(f.mux, f)
	f.mux.HandleFunc("GET /api/status", f.handleStatus)
	f.mux.HandleFunc("GET /api/workers", f.handleWorkers)
	f.mux.HandleFunc("GET /api/costs", f.handleCosts)
	f.mux.HandleFunc("GET /api/consensus", f.handleConsensus)
	f.mux.HandleFunc("GET /api/snapshot", serveSnapshot(f.Snapshot))
	f.mux.HandleFunc("POST /api/restore", f.handleRestore)
	f.mux.HandleFunc("GET /api/healthz", f.handleHealthz)
	f.mux.HandleFunc("GET /api/metricsz", f.handleMetricsz)
	f.mux.HandleFunc("GET /metrics", f.handleMetricsz)
	f.mux.HandleFunc("GET /metrics/sketch", f.handleMetricsSketch)
	f.mux.HandleFunc("GET /{$}", server.WorkerUI)
	return f
}

// ServeHTTP dispatches to the API mux.
func (f *Fabric) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}
