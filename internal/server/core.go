package server

import "errors"

// The transport-agnostic core of the retainer-pool protocol. Every
// transport — the JSON/HTTP facade in httpapi.go, the binary wire protocol
// in internal/wire — is a thin shim over this interface: typed request
// values in, typed results out, no http.Request (or net.Conn) below the
// shim. ShardSet implements it in process by routing each op across a
// node's shards (internal/fabric's Fabric embeds one); fabric.Router
// implements it by forwarding to remote nodes. Keeping every node type
// behind one API is what keeps the HTTP and wire transports
// protocol-identical by construction.
type Core interface {
	// CoreJoin admits a worker and returns its globally-unique id.
	CoreJoin(name string) int
	// CoreHeartbeat refreshes a worker's liveness; false = unknown worker.
	CoreHeartbeat(workerID int) bool
	// CoreLeave removes a worker; unknown ids are a no-op.
	CoreLeave(workerID int)
	// CoreEnqueue admits a batch of task specs and returns their ids in
	// request order. The whole batch is validated first: a nil error means
	// every spec was admitted, and an invalid batch (empty, or a spec with
	// no records or mismatched features) admits none of them.
	CoreEnqueue(specs []TaskSpec) ([]int, error)
	// CoreFetch hands the polling worker its next assignment (or
	// re-delivers the in-flight one).
	CoreFetch(workerID int) (Assignment, FetchDisposition)
	// CoreSubmit ingests a completed assignment. A nil *CoreError means the
	// submission was acknowledged (accepted, or terminated-but-paid).
	CoreSubmit(workerID, taskID int, labels []int) (SubmitReply, *CoreError)
	// CoreResult reports a task's status and, when complete, its consensus.
	CoreResult(taskID int) (TaskStatus, bool)
}

// FetchDisposition classifies a fetch outcome for the transport shims.
type FetchDisposition int

const (
	// FetchAssigned: the returned Assignment is work (HTTP 200).
	FetchAssigned FetchDisposition = iota
	// FetchNoWork: nothing to hand out, keep waiting (HTTP 204).
	FetchNoWork
	// FetchGoneRetired: the worker was retired by maintenance (HTTP 410).
	FetchGoneRetired
	// FetchNoWorker: the worker is not in the pool (HTTP 404).
	FetchNoWorker
	// FetchUnavailable: the worker's shard lives on a node the router
	// cannot reach right now (HTTP 503); retry with backoff.
	FetchUnavailable
)

// SubmitReply is the acknowledged half of a submission outcome.
type SubmitReply struct {
	Accepted   bool
	Terminated bool
}

// CoreError is a transport-agnostic request failure: NotFound selects the
// protocol's not-found status (HTTP 404), otherwise bad-request (HTTP 400).
type CoreError struct {
	NotFound bool
	Err      error
}

func (e *CoreError) Error() string { return e.Err.Error() }

// Canonical protocol errors. The exact strings are part of the protocol
// surface (both transports and every Core implementation share them).
var (
	ErrUnknownWorker   = errors.New("unknown worker")
	ErrUnknownTask     = errors.New("unknown task")
	ErrNoMoreTasks     = errors.New("no more tasks available")
	ErrNoTasksGiven    = errors.New("no tasks given")
	ErrTaskNoRecords   = errors.New("task with no records")
	ErrTaskBadFeatures = errors.New("task features do not match records")
	// ErrUnavailable reports that the shard or node owning the entity is
	// unreachable (a remote node down, its circuit open). The op did not
	// run; callers retry with backoff.
	ErrUnavailable = errors.New("shard unavailable")
)

// ValidateSpec applies the Core-level spec checks shared by every Core
// implementation: a task must carry records, and features (when present)
// must carry one vector per record.
//
//clamshell:hotpath
func ValidateSpec(spec TaskSpec) error {
	if len(spec.Records) == 0 {
		return ErrTaskNoRecords
	}
	if len(spec.Features) != 0 && len(spec.Features) != len(spec.Records) {
		return ErrTaskBadFeatures
	}
	return nil
}
