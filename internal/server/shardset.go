package server

import (
	"sync/atomic"

	"github.com/clamshell/clamshell/internal/hashring"
)

// ShardSet is one node's shards behind the Core interface: the
// transport-agnostic routing layer served by both the JSON/HTTP shim
// (RegisterCoreRoutes) and the binary wire transport (internal/wire). Each
// op routes by the id→shard mapping and composes Shard operations, one
// shard lock at a time; cross-shard operations (a stolen fetch, a submit
// whose worker and task live apart) are sequenced as independent lock
// acquisitions with explicit rollback, so no path holds two shard locks.
// A 1-shard, 1-node set is the single-pool server.
type ShardSet struct {
	shards    []*Shard
	nodeIndex int // this node's stripe in the fabric-wide id space
	nodeCount int // total nodes sharing the id space (1 = standalone)
	obs       *Obs
	nextHome  atomic.Uint64 // rotation candidate for worker pinning
	probe     atomic.Uint64 // counter behind the second join-placement probe
}

// NewShardSet creates one node's slice of a multi-node fabric: m local
// shards out of nodeCount×m fabric-wide, where this node (index nodeIndex)
// owns every global shard g with g ≡ nodeIndex (mod nodeCount). Ids remain
// globally unique and shard-addressable across the whole fabric — local
// shard j allocates ids in global stripe nodeIndex + nodeCount·j — so a
// router holding only nodeCount can address any id's owning node as
// (id-1) mod nodeCount. m < 1 is treated as 1; NewShardSet(cfg, 1, 0, 1)
// is the single-pool server.
func NewShardSet(cfg Config, m, nodeIndex, nodeCount int) *ShardSet {
	if m < 1 {
		m = 1
	}
	if nodeCount < 1 {
		nodeCount = 1
	}
	if nodeIndex < 0 || nodeIndex >= nodeCount {
		nodeIndex = 0
	}
	ss := &ShardSet{nodeIndex: nodeIndex, nodeCount: nodeCount, obs: NewObs(cfg.Now)}
	total := nodeCount * m
	for j := 0; j < m; j++ {
		ss.shards = append(ss.shards, NewShard(cfg, nodeIndex+nodeCount*j, total))
	}
	return ss
}

// Shards returns the local shards in stripe order (callers must not
// modify the slice).
func (ss *ShardSet) Shards() []*Shard { return ss.shards }

// NumShards returns the local shard count.
func (ss *ShardSet) NumShards() int { return len(ss.shards) }

// NodeCount returns the number of nodes sharing the id space.
func (ss *ShardSet) NodeCount() int { return ss.nodeCount }

// Obs returns the set's transport observability state. RegisterCoreRoutes
// and the wire server sniff it off the Core, so both transports record
// per-op latencies into one place.
func (ss *ShardSet) Obs() *Obs { return ss.obs }

// shardOf maps a globally-unique id (worker or task) to its owning shard:
// nil for ids outside the allocated space or owned by another node.
func (ss *ShardSet) shardOf(id int) *Shard {
	if id < 1 {
		return nil
	}
	g := (id - 1) % (ss.nodeCount * len(ss.shards))
	if g%ss.nodeCount != ss.nodeIndex {
		return nil
	}
	return ss.shards[g/ss.nodeCount]
}

// localIndex returns the position in ss.shards of the shard owning id.
// Callers must have checked shardOf(id) != nil.
func (ss *ShardSet) localIndex(id int) int {
	return ((id - 1) % (ss.nodeCount * len(ss.shards))) / ss.nodeCount
}

// placeShard chooses the shard for a new task by consistent-hashing its
// record content.
func (ss *ShardSet) placeShard(spec TaskSpec) *Shard {
	return ss.shards[hashring.Jump(hashring.HashStrings(spec.Records), len(ss.shards))]
}

// homeShard picks the shard for a joining worker: power-of-two-choices on
// current pool size. Candidate A rotates round-robin; candidate B is a
// pseudo-random probe (a counter mixed through splitmix64 — cheap,
// lock-free, and deterministic across runs so protocol tests stay
// reproducible). The smaller pool wins; ties go to the rotation, so on a
// balanced set placement is exactly the historical round-robin.
func (ss *ShardSet) homeShard() *Shard {
	n := uint64(len(ss.shards))
	a := ss.shards[int((ss.nextHome.Add(1)-1)%n)]
	if n == 1 {
		return a
	}
	x := ss.probe.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if b := ss.shards[int(x%n)]; b != a && b.poolSize.Load() < a.poolSize.Load() {
		return b
	}
	return a
}

// PoolSizes reports the current worker-pool size of every shard (ops
// visibility and the churn-balance regression test).
func (ss *ShardSet) PoolSizes() []int {
	out := make([]int, len(ss.shards))
	for i, sh := range ss.shards {
		out[i] = int(sh.poolSize.Load())
	}
	return out
}

// ReleaseOrphans resolves any cross-shard assignments orphaned by worker
// removal on sh: the active slot is cleared on the task's owning shard so
// the task returns to that shard's queue. Call it after any shard
// operation that can expire or remove workers.
func (ss *ShardSet) ReleaseOrphans(sh *Shard) {
	for _, o := range sh.drainOrphans() {
		if t := ss.shardOf(o.Task); t != nil && t != sh {
			t.releaseActive(o.Task, o.Worker)
		}
	}
}

// CoreJoin pins the worker to a home shard and admits it. Placement is
// power-of-two-choices on current pool size: the round-robin candidate is
// compared against one pseudo-randomly probed shard and the smaller pool
// wins (ties go to the round-robin pick, so a balanced set degrades to
// the historical deterministic rotation). Under sustained asymmetric churn
// this steers joins toward drained shards instead of letting pool sizes
// skew (see internal/fabric's balance_test.go).
//
//clamshell:hotpath
func (ss *ShardSet) CoreJoin(name string) int {
	return ss.homeShard().Join(name)
}

// CoreHeartbeat keeps a waiting worker alive on its home shard.
//
//clamshell:hotpath
func (ss *ShardSet) CoreHeartbeat(workerID int) bool {
	sh := ss.shardOf(workerID)
	return sh != nil && sh.heartbeat(workerID)
}

// CoreLeave removes a worker; a local assignment returns to the queue
// directly and a stolen one is released on the task's shard.
//
//clamshell:hotpath
func (ss *ShardSet) CoreLeave(workerID int) {
	if sh := ss.shardOf(workerID); sh != nil {
		sh.leave(workerID)
		ss.ReleaseOrphans(sh)
	}
}

// CoreEnqueue validates the whole batch, then places each task on a shard
// by consistent-hashing its records; ids are returned in request order.
//
//clamshell:hotpath
func (ss *ShardSet) CoreEnqueue(specs []TaskSpec) ([]int, error) {
	if len(specs) == 0 {
		return nil, ErrNoTasksGiven
	}
	for _, spec := range specs {
		if err := ValidateSpec(spec); err != nil {
			return nil, err
		}
	}
	ids := make([]int, 0, len(specs))
	for _, spec := range specs {
		ids = append(ids, ss.placeShard(spec).Enqueue(spec))
	}
	return ids, nil
}

// CoreFetch hands the next task to a polling worker: the home shard's own
// queue first, then — stealing across the set — starved tasks on any
// shard before speculative duplicates on any shard. FetchNoWork means
// "keep waiting".
//
//clamshell:hotpath
func (ss *ShardSet) CoreFetch(workerID int) (Assignment, FetchDisposition) {
	home := ss.shardOf(workerID)
	if home == nil {
		return Assignment{}, FetchNoWorker
	}
	current, st := home.beginFetch(workerID)
	ss.ReleaseOrphans(home)
	switch st {
	case FetchRetired:
		return Assignment{}, FetchGoneRetired
	case FetchUnknown:
		return Assignment{}, FetchNoWorker
	case FetchCurrent:
		// Re-deliver the in-flight assignment (lost response tolerance) —
		// possibly from another shard if it was stolen.
		if owner := ss.shardOf(current); owner != nil {
			if payload, ok := owner.taskPayload(current); ok {
				return payload, FetchAssigned
			}
		}
		// The assignment's payload is gone (e.g. the owning shard was
		// restored away from under the assignment). Answering "no work"
		// while the assignment stands would wedge the worker into empty
		// polls forever: clear the dangling assignment and fall through to a
		// fresh pick.
		home.clearAssignment(workerID, current)
	}

	// Starved work anywhere in the set beats speculation anywhere:
	// local starved, stolen starved, then (local first) speculative.
	for _, starvedOnly := range []bool{true, false} {
		if payload, ok := home.pickLocal(workerID, starvedOnly); ok {
			return payload, FetchAssigned
		}
		if payload, ok := ss.steal(home, workerID, starvedOnly); ok {
			return payload, FetchAssigned
		}
	}
	return Assignment{}, FetchNoWork
}

// steal runs one ring pass over the other shards for an idle worker homed
// on home. A successful pick is recorded on the home shard; if the worker
// vanished or got work concurrently, the steal rolls back.
func (ss *ShardSet) steal(home *Shard, workerID int, starvedOnly bool) (Assignment, bool) {
	n := len(ss.shards)
	if n == 1 {
		return Assignment{}, false
	}
	homeIdx := ss.localIndex(workerID) // the same stripe rule shardOf uses
	for off := 1; off < n; off++ {
		sh := ss.shards[(homeIdx+off)%n]
		tid, payload, ok := sh.pickSteal(workerID, starvedOnly)
		if !ok {
			continue
		}
		if home.assignStolen(workerID, tid) {
			ss.obs.Steals.Add(1)
			return payload, true
		}
		sh.releaseActive(tid, workerID)
		return Assignment{}, false
	}
	return Assignment{}, false
}

// CoreSubmit ingests a completed assignment: the task-side half on the
// task's shard (validation, termination race, pay, quorum), then the
// worker-side half on the worker's home shard (latency, maintenance,
// restart of the paid-wait span).
//
//clamshell:hotpath
func (ss *ShardSet) CoreSubmit(workerID, taskID int, labels []int) (SubmitReply, *CoreError) {
	home := ss.shardOf(workerID)
	if home == nil || !home.workerKnown(workerID) {
		return SubmitReply{}, &CoreError{NotFound: true, Err: ErrUnknownWorker}
	}
	owner := ss.shardOf(taskID)
	if owner == nil {
		return SubmitReply{}, &CoreError{NotFound: true, Err: ErrUnknownTask}
	}
	outcome, records, err := owner.AcceptAnswer(taskID, workerID, labels)
	switch outcome {
	case SubmitUnknownTask:
		return SubmitReply{}, &CoreError{NotFound: true, Err: err}
	case SubmitBadLabels:
		return SubmitReply{}, &CoreError{Err: err}
	case SubmitDuplicate:
		// A replayed submission (client retry after a lost response): the
		// answer is already on the books. Re-acknowledge without paying
		// again or double-counting the worker's completion stats.
		return SubmitReply{Accepted: true}, nil
	case SubmitDuplicateTerminated:
		// Same, for a replayed straggler submission that already lost the
		// race: the original termination was acknowledged and paid once.
		return SubmitReply{Terminated: true}, nil
	case SubmitTerminated:
		// A straggler losing the race: acknowledged, paid, discarded.
		home.finishAssignment(workerID, taskID, records)
		ss.ReleaseOrphans(home) // maintenance may have retired the worker mid-steal
		return SubmitReply{Terminated: true}, nil
	default: // SubmitAccepted
		home.finishAssignment(workerID, taskID, records)
		ss.ReleaseOrphans(home)
		return SubmitReply{Accepted: true}, nil
	}
}

// CoreResult returns a task's status from its owning shard.
//
//clamshell:hotpath
func (ss *ShardSet) CoreResult(taskID int) (TaskStatus, bool) {
	owner := ss.shardOf(taskID)
	if owner == nil {
		return TaskStatus{}, false
	}
	return owner.resultStatus(taskID)
}

// AutoFinalize implements hybrid.Decider: the decision lands on the task's
// owning shard, which journals it.
func (ss *ShardSet) AutoFinalize(taskID int, labels []int) bool {
	sh := ss.shardOf(taskID)
	return sh != nil && sh.autoFinalize(taskID, labels)
}

// Reprioritize implements hybrid.Decider: the move lands on the task's
// owning shard, which journals it.
func (ss *ShardSet) Reprioritize(taskID, priority int) bool {
	sh := ss.shardOf(taskID)
	return sh != nil && sh.reprioritize(taskID, priority)
}
