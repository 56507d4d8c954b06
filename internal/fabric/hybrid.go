package fabric

import (
	"sort"
	"sync/atomic"

	"github.com/clamshell/clamshell/internal/hybrid"
	"github.com/clamshell/clamshell/internal/server"
)

// Hybrid learning plane wiring. The fabric streams every shard's label
// events into one plane — cross-shard tasks with the same problem shape
// share a learner, so the model trains on fabric-wide evidence — and routes
// the plane's decisions back to each task's owning shard. The Decider
// methods (the embedded ShardSet's AutoFinalize and Reprioritize) follow
// the fabric's locking rule: one shard lock per call, never two.

// hybridPlane is stored atomically so scrape handlers can read it without
// coordinating with EnableHybrid.
type hybridPlane = atomic.Pointer[hybrid.Plane]

// EnableHybrid attaches a learning plane to the fabric: every shard's label
// sink feeds the plane, the pool's current state is replayed into it (so a
// restart relearns from the finalized tasks still live), and the background
// loop starts. Call after OpenPersist so the seed reflects recovered state.
// The returned plane must be Closed on shutdown; the caller owns it.
func (f *Fabric) EnableHybrid(cfg hybrid.Config) *hybrid.Plane {
	p := hybrid.New(cfg, f)
	for _, sh := range f.Shards() {
		sh.SetLabelSink(p.Ingest)
	}
	var evs []server.LabelEvent
	for _, sh := range f.Shards() {
		evs = append(evs, sh.SeedLabelEvents()...)
	}
	// Shards emit their own tasks in id order; interleave across shards the
	// same way so seeding is deterministic whatever the shard count. The
	// stable sort preserves each task's enqueued-before-finalized pairing.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Task < evs[j].Task })
	p.Seed(evs)
	p.Start()
	f.hybrid.Store(p)
	return p
}

// hybridSnapshot returns the plane's metrics contribution, or nil when the
// plane is not attached.
func (f *Fabric) hybridSnapshot() *server.HybridSnapshot {
	if p := f.hybrid.Load(); p != nil {
		return p.Snapshot()
	}
	return nil
}
