package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/clamshell/clamshell/internal/fabric"
	"github.com/clamshell/clamshell/internal/repl"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// Deployment defaults the benchmark keeps: group fsync, the fabric's
// default replication barrier and the follower's default pull cadence.
// Only WorkerTimeout is raised, so no retained worker expires mid-run.
const (
	fsyncPolicy   = "group"
	workerTimeout = time.Hour
)

// durable-http compacts every two seconds and demotes completed tasks
// after one, so compaction runs several times per run and the live task
// map stays bounded. replicated-routed keeps the server defaults
// (no retention, one compaction per minute).
const (
	httpRetention       = time.Second
	httpCompactInterval = 2 * time.Second
)

// stepTimeout bounds every set-up and teardown step: a follower that never
// attaches or a server that never drains fails the run instead of hanging it.
const stepTimeout = 20 * time.Second

// laneIndex maps worker ids and task records to the lane that owns them,
// so server-side spans can find their client span. It is built during
// set-up and published once, before traffic starts.
type laneIndex struct {
	workers map[int]int
	in      *inputs // a task's first record names its template, and so its lane
}

type laneIndexRef struct{ p atomic.Pointer[laneIndex] }

func (r *laneIndexRef) worker(id int) int {
	if ix := r.p.Load(); ix != nil {
		if l, ok := ix.workers[id]; ok {
			return l
		}
	}
	return -1
}

func (r *laneIndexRef) specs(specs []server.TaskSpec) int {
	ix := r.p.Load()
	if ix == nil || len(specs) == 0 || len(specs[0].Records) == 0 {
		return -1
	}
	if t, ok := ix.in.byRec0[specs[0].Records[0]]; ok {
		return t.batch.lane
	}
	return -1
}

// tracedCore wraps a node's fabric with spans around each Core op. It
// embeds the real *fabric.Fabric, so wire.NewServer and
// RegisterCoreRoutes still find Obs, ReplSource and SnapshotSource and
// the traced run serves the same program.
type tracedCore struct {
	*fabric.Fabric
	tr   *tracer
	ix   *laneIndexRef
	last atomic.Int32 // lane of the latest op: the owner of the next barrier
}

func (c *tracedCore) CoreEnqueue(specs []server.TaskSpec) ([]int, error) {
	l := c.ix.specs(specs)
	c.last.Store(int32(l))
	i := c.tr.begin(l, hopNode, "fabric.enqueue", len(specs))
	ids, err := c.Fabric.CoreEnqueue(specs)
	c.tr.end(l, hopNode, i)
	return ids, err
}

func (c *tracedCore) CoreFetch(workerID int) (server.Assignment, server.FetchDisposition) {
	l := c.ix.worker(workerID)
	c.last.Store(int32(l))
	i := c.tr.begin(l, hopNode, "fabric.fetch", 1)
	a, d := c.Fabric.CoreFetch(workerID)
	c.tr.end(l, hopNode, i)
	return a, d
}

func (c *tracedCore) CoreSubmit(workerID, taskID int, labels []int) (server.SubmitReply, *server.CoreError) {
	l := c.ix.worker(workerID)
	c.last.Store(int32(l))
	i := c.tr.begin(l, hopNode, "fabric.submit", 1)
	r, err := c.Fabric.CoreSubmit(workerID, taskID, labels)
	c.tr.end(l, hopNode, i)
	return r, err
}

// tracedRouter wraps the router the same way; its spans sit one hop above
// the nodes'.
type tracedRouter struct {
	*fabric.Router
	tr *tracer
	ix *laneIndexRef
}

func (c *tracedRouter) CoreEnqueue(specs []server.TaskSpec) ([]int, error) {
	l := c.ix.specs(specs)
	i := c.tr.begin(l, hopRouter, "router.enqueue", len(specs))
	ids, err := c.Router.CoreEnqueue(specs)
	c.tr.end(l, hopRouter, i)
	return ids, err
}

func (c *tracedRouter) CoreFetch(workerID int) (server.Assignment, server.FetchDisposition) {
	l := c.ix.worker(workerID)
	i := c.tr.begin(l, hopRouter, "router.fetch", 1)
	a, d := c.Router.CoreFetch(workerID)
	c.tr.end(l, hopRouter, i)
	return a, d
}

func (c *tracedRouter) CoreSubmit(workerID, taskID int, labels []int) (server.SubmitReply, *server.CoreError) {
	l := c.ix.worker(workerID)
	i := c.tr.begin(l, hopRouter, "router.submit", 1)
	r, err := c.Router.CoreSubmit(workerID, taskID, labels)
	c.tr.end(l, hopRouter, i)
	return r, err
}

// countingConn counts the bytes a connection carries in both directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// node is one fabric node of a topology with its serving state.
type node struct {
	fab      *fabric.Fabric
	core     server.Core // what the servers front: fab or its traced wrapper
	traced   *tracedCore
	wireAddr string
	follower *repl.Follower
	barrier  *barrierLog
}

// barrierLog times every replication barrier a node's wire server runs.
type barrierLog struct {
	mu    sync.Mutex
	waits []float64 // ms
}

// topology is one workload's live system, assembled from the program's
// public constructors with every hop on loopback TCP.
type topology struct {
	tr  *tracer
	ix  laneIndexRef
	dir string // persist root (durable workloads)

	nodes    []*node
	router   *fabric.Router
	remotes  []*fabric.RemoteShard
	front    server.Core // Result checks go here
	wireAddr string      // lanes dial this (wire workloads)
	httpAddr string      // lanes dial this (durable-http)

	laneBytes atomic.Int64 // lane connection bytes (traced runs)
	hopBytes  atomic.Int64 // router→node bytes (traced runs)

	closers []func() error // teardown, run in reverse order
}

func (t *topology) onClose(f func() error) { t.closers = append(t.closers, f) }

// close tears the topology down in reverse order of assembly, bounding
// each step.
func (t *topology) close() error {
	var errs []error
	for i := len(t.closers) - 1; i >= 0; i-- {
		if err := bounded(t.closers[i]); err != nil {
			errs = append(errs, err)
		}
	}
	t.closers = nil
	return errors.Join(errs...)
}

// bounded runs one set-up or teardown step within stepTimeout.
func bounded(f func() error) error { return within(stepTimeout, f) }

// within runs f with a deadline. A call that wedges is reported and
// abandoned; its goroutine ends with the process.
func within(d time.Duration, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("step exceeded %v", d)
	}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func serverConfig() server.Config { return server.Config{WorkerTimeout: workerTimeout} }

// startWire serves core over wire v2 on a fresh loopback listener and
// returns its address.
func (t *topology) startWire(core server.Core, barrier func()) (string, error) {
	l, err := listen()
	if err != nil {
		return "", err
	}
	srv := wire.NewServer(core)
	srv.Barrier = barrier
	done := make(chan struct{})
	go func() { srv.Serve(l); close(done) }()
	t.onClose(func() error {
		l.Close()
		srv.Shutdown()
		<-done
		return nil
	})
	return l.Addr().String(), nil
}

// newNode builds one fabric node; durable nodes journal under dir.
func (t *topology) newNode(shards, index, count int, dir string, opts fabric.PersistOptions) (*node, error) {
	n := &node{fab: fabric.NewNode(serverConfig(), shards, index, count)}
	n.core = n.fab
	if t.tr != nil {
		n.traced = &tracedCore{Fabric: n.fab, tr: t.tr, ix: &t.ix}
		n.core = n.traced
	}
	if dir != "" {
		opts.Dir = dir
		opts.Fsync = fsyncPolicy
		if err := n.fab.OpenPersist(opts); err != nil {
			return nil, fmt.Errorf("open persist: %w", err)
		}
		t.onClose(n.fab.ClosePersist)
	}
	t.nodes = append(t.nodes, n)
	return n, nil
}

// buildTopology assembles the workload's system. lanes is the number of
// client lanes the tracer must know about.
func buildTopology(workload, workdir string, tr *tracer) (*topology, error) {
	t := &topology{tr: tr}
	var err error
	switch workload {
	case "pool-wire":
		err = t.buildPoolWire()
	case "durable-http":
		err = t.buildDurableHTTP(workdir)
	case "replicated-routed":
		err = t.buildReplicatedRouted(workdir)
	default:
		err = fmt.Errorf("unknown live workload %q", workload)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// pool-wire: one in-process 2-shard fabric, no journal, wire v2.
func (t *topology) buildPoolWire() error {
	n, err := t.newNode(2, 0, 1, "", fabric.PersistOptions{})
	if err != nil {
		return err
	}
	t.wireAddr, err = t.startWire(n.core, nil)
	t.front = n.fab
	return err
}

// durable-http: one 2-shard node with the journal on disk, served over
// the HTTP/JSON shim.
func (t *topology) buildDurableHTTP(workdir string) error {
	dir, err := os.MkdirTemp(workdir, "durable-http-")
	if err != nil {
		return err
	}
	t.dir = dir
	t.onClose(func() error { return os.RemoveAll(dir) })
	n, err := t.newNode(2, 0, 1, filepath.Join(dir, "node"), fabric.PersistOptions{
		Retention:       httpRetention,
		CompactInterval: httpCompactInterval,
	})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	server.RegisterCoreRoutes(mux, n.core)
	l, err := listen()
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() { srv.Serve(l); close(done) }()
	t.onClose(func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		<-done
		return nil
	})
	t.httpAddr = l.Addr().String()
	t.front = n.fab
	return nil
}

// replicated-routed: a router over two 1-shard journaled nodes, each with
// replication on and one follower, every hop on wire v2.
func (t *topology) buildReplicatedRouted(workdir string) error {
	dir, err := os.MkdirTemp(workdir, "replicated-routed-")
	if err != nil {
		return err
	}
	t.dir = dir
	t.onClose(func() error { return os.RemoveAll(dir) })
	const count = 2
	for i := 0; i < count; i++ {
		n, err := t.newNode(1, i, count, filepath.Join(dir, fmt.Sprintf("node-%d", i)), fabric.PersistOptions{
			CompactInterval: time.Minute,
		})
		if err != nil {
			return err
		}
		if err := n.fab.EnableReplication(fabric.DefaultBarrierTimeout); err != nil {
			return err
		}
		barrier := n.fab.ReplBarrier()
		if t.tr != nil {
			barrier = t.tracedBarrier(n, barrier)
		}
		n.wireAddr, err = t.startWire(n.core, barrier)
		if err != nil {
			return err
		}
		fl, err := repl.NewFollower(repl.FollowerConfig{
			Addr: n.wireAddr,
			Dir:  filepath.Join(dir, fmt.Sprintf("follower-%d", i)),
		})
		if err != nil {
			return err
		}
		n.follower = fl
		done := make(chan struct{})
		go func() { fl.Run(); close(done) }()
		t.onClose(func() error { fl.Stop(); <-done; return nil })
	}
	// The barrier only gates acks once a follower has pulled: wait for
	// both, bounded.
	deadline := time.Now().Add(stepTimeout)
	for _, n := range t.nodes {
		for !n.fab.ReplTracker().Attached() {
			if time.Now().After(deadline) {
				return errors.New("follower did not attach")
			}
			time.Sleep(time.Millisecond)
		}
	}
	var opts fabric.RemoteOptions
	if t.tr != nil {
		opts.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, n: &t.hopBytes}, nil
		}
	}
	for _, n := range t.nodes {
		t.remotes = append(t.remotes, fabric.NewRemoteShard(n.wireAddr, opts))
	}
	t.onClose(func() error {
		for _, r := range t.remotes {
			r.Close()
		}
		return nil
	})
	t.router = fabric.NewRouter(t.remotes, nil)
	var core server.Core = t.router
	if t.tr != nil {
		core = &tracedRouter{Router: t.router, tr: t.tr, ix: &t.ix}
	}
	t.wireAddr, err = t.startWire(core, nil)
	t.front = t.router
	return err
}

// tracedBarrier wraps a node's replication barrier: each wait becomes a
// span owned by the lane of the node's latest op (each node has exactly
// one mutating connection, the router's), and its duration is logged.
func (t *topology) tracedBarrier(n *node, barrier func()) func() {
	n.barrier = &barrierLog{}
	return func() {
		l := int(n.traced.last.Load())
		i := t.tr.begin(l, hopNode, "repl.barrier", 1)
		t0 := time.Now()
		barrier()
		d := time.Since(t0)
		t.tr.end(l, hopNode, i)
		if t.tr.active() {
			n.barrier.mu.Lock()
			n.barrier.waits = append(n.barrier.waits, float64(d)/1e6)
			n.barrier.mu.Unlock()
		}
	}
}

// dial opens one lane connection to the topology's front door, counted
// when tracing.
func (t *topology) dial() (net.Conn, error) {
	addr := t.wireAddr
	if t.httpAddr != "" {
		addr = t.httpAddr
	}
	c, err := net.DialTimeout("tcp", addr, stepTimeout)
	if err != nil {
		return nil, err
	}
	if t.tr != nil {
		return countingConn{Conn: c, n: &t.laneBytes}, nil
	}
	return c, nil
}
