package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// warmup runs the loop before the window opens, so connection buffers,
// the heap and the dispatch index settle before anything is timed.
const warmup = 200 * time.Millisecond

// liveSystem is a topology with its lanes connected and workers joined.
type liveSystem struct {
	topo  *topology
	lanes []*lane
}

// setUp boots the workload's topology, connects the lanes and joins the
// pool. Its duration is the benchmark's setup_s.
func setUp(workload, workdir string, in *inputs, traced bool) (*liveSystem, error) {
	var tr *tracer
	if traced {
		tr = newTracer(lanesPerRun)
	}
	topo, err := buildTopology(workload, workdir, tr)
	if err != nil {
		return nil, err
	}
	sys := &liveSystem{topo: topo}
	ix := &laneIndex{workers: make(map[int]int), in: in}
	for l := 0; l < lanesPerRun; l++ {
		conn, err := topo.dial()
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("dial lane %d: %w", l, err)
		}
		var tp transport
		if topo.httpAddr != "" {
			tp = newHTTPLane(conn, l, tr, in)
		} else if tp, err = newWireLane(conn, l, tr, in); err != nil {
			sys.close()
			return nil, fmt.Errorf("wire handshake lane %d: %w", l, err)
		}
		ln := &lane{idx: l, tp: tp, tmpls: in.lanes[l]}
		sys.lanes = append(sys.lanes, ln)
		names := make([]string, workersPerLane)
		for i := range names {
			names[i] = "lane" + strconv.Itoa(l) + "-worker" + strconv.Itoa(i)
		}
		ids, err := tp.join(names)
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("join lane %d: %w", l, err)
		}
		for _, id := range ids {
			ln.workers = append(ln.workers, &worker{id: id})
			ix.workers[id] = l
		}
	}
	topo.ix.p.Store(ix)
	return sys, nil
}

func (s *liveSystem) close() error {
	for _, l := range s.lanes {
		l.tp.close()
	}
	return s.topo.close()
}

// probe is a reading of the process and program counters at a window
// boundary.
type probe struct {
	cpu        time.Duration
	alloc      uint64
	usd        float64
	steals     float64
	commitOps  float64 // journal ops made durable (summary sum)
	commits    float64 // group commits (summary count)
	writeBytes float64 // process storage writes
	degraded   float64
	pulled     float64
	bootstraps float64
	reconnects float64
	laneBytes  float64
	hopBytes   float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *liveSystem) probe(traced bool) probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := probe{cpu: cpuTime(), alloc: ms.TotalAlloc}
	for _, n := range s.topo.nodes {
		p.usd += costDollars(n.fab)
	}
	if !traced {
		return p
	}
	for _, n := range s.topo.nodes {
		m := scrape(n.fab)
		p.steals += m["clamshell_steals_total"]
		p.commitOps += m["clamshell_journal_batch_ops_sum"]
		p.commits += m["clamshell_journal_batch_ops_count"]
		p.degraded += float64(n.fab.ReplDegraded())
		if n.follower != nil {
			p.pulled += float64(n.follower.PulledBytes())
			p.bootstraps += float64(n.follower.Bootstraps())
		}
	}
	if s.topo.router != nil {
		p.reconnects = float64(s.topo.router.Reconnects())
	}
	p.writeBytes = procWriteBytes()
	p.laneBytes = float64(s.topo.laneBytes.Load())
	p.hopBytes = float64(s.topo.hopBytes.Load())
	return p
}

// costDollars reads the node's live cost ledger (GET /api/costs).
func costDollars(h http.Handler) float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/costs", nil))
	var c struct {
		Total float64 `json:"total_dollars"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &c); err != nil {
		return math.NaN()
	}
	return c.Total
}

// scrape reads the node's /metrics exposition into a series → value map;
// labelled series keep their label set in the key.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// procWriteBytes is the process's storage write counter (/proc/self/io),
// or NaN where the kernel does not expose it.
func procWriteBytes() float64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return math.NaN()
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("write_bytes: ")); ok {
			if n, err := strconv.ParseFloat(string(v), 64); err == nil {
				return n
			}
		}
	}
	return math.NaN()
}

// liveResult is one timed run of a live workload.
type liveResult struct {
	window     time.Duration
	stats      laneStats // merged across lanes
	before     probe
	after      probe
	spans      map[string]*spanStat
	barrier    []float64 // barrier waits, ms (traced)
	commitLag  float64   // journal commit lag p99, s (traced)
	checkError error
}

// runWindow drives the lanes closed-loop: warm-up, then a window of the
// given length, then a bounded drain of the batches still in flight.
func (s *liveSystem) runWindow(window time.Duration, traced bool) (*liveResult, error) {
	rs := &runState{epoch: time.Now(), tr: s.topo.tr}
	rs.winStart.Store(math.MaxInt64)
	rs.winEnd.Store(math.MaxInt64)
	errc := make(chan error, len(s.lanes))
	for _, l := range s.lanes {
		l.rs, l.clock = rs, rs.now
		go func(l *lane) {
			err := l.run()
			if err != nil {
				rs.abort.Store(true)
			}
			errc <- err
		}(l)
	}
	res := &liveResult{}
	var laneErr error
	wait := func(d time.Duration) bool {
		select {
		case laneErr = <-errc:
			return false
		case <-time.After(d):
			return true
		}
	}
	running := len(s.lanes)
	if wait(warmup) {
		res.before = s.probe(traced)
		rs.winStart.Store(rs.now())
		if traced {
			rs.tr.on.Store(true)
		}
		if wait(window) {
			end := rs.now()
			rs.winEnd.Store(end)
			if traced {
				rs.tr.on.Store(false)
			}
			res.window = time.Duration(end - rs.winStart.Load())
			res.after = s.probe(traced)
			rs.stop.Store(true)
		} else {
			running--
		}
	} else {
		running--
	}
	if laneErr != nil || running < len(s.lanes) {
		rs.abort.Store(true)
		rs.stop.Store(true)
	}
	deadline := time.After(drainTimeout + opWatchdog + 5*time.Second)
	for ; running > 0; running-- {
		select {
		case err := <-errc:
			if laneErr == nil {
				laneErr = err
			}
		case <-deadline:
			// A wedged op: close the lanes so their goroutines unblock.
			for _, l := range s.lanes {
				l.tp.close()
			}
			return nil, errors.New("lanes did not finish within the drain deadline")
		}
	}
	if laneErr != nil {
		return nil, laneErr
	}
	for _, l := range s.lanes {
		mergeStats(&res.stats, &l.st)
	}
	if traced {
		res.spans = s.topo.tr.stats()
		for _, n := range s.topo.nodes {
			if n.barrier != nil {
				n.barrier.mu.Lock()
				res.barrier = append(res.barrier, n.barrier.waits...)
				n.barrier.mu.Unlock()
			}
			m := scrape(n.fab)
			res.commitLag = max(res.commitLag, m[`clamshell_journal_commit_lag_seconds{quantile="0.99"}`])
		}
	}
	res.checkError = s.check(&res.stats)
	return res, nil
}

// rate is the run's labeled records per second.
func (r *liveResult) rate() float64 { return float64(r.stats.labels) / r.window.Seconds() }

func mergeStats(dst, src *laneStats) {
	dst.rounds = append(dst.rounds, src.rounds...)
	dst.tasks = append(dst.tasks, src.tasks...)
	dst.batches = append(dst.batches, src.batches...)
	dst.batchStd = append(dst.batchStd, src.batchStd...)
	dst.labels += src.labels
	dst.attempted += src.attempted
	dst.failed += src.failed
	dst.accepted += src.accepted
	dst.terminated += src.terminated
	dst.fetches += src.fetches
	dst.emptyFetches += src.emptyFetches
	dst.enqueued = append(dst.enqueued, src.enqueued...)
	dst.doubleCompleted += src.doubleCompleted
	dst.stale += src.stale
}

// checkTimeout bounds the post-run correctness check.
const checkTimeout = 60 * time.Second

// check verifies, outside timing, that every enqueued task is complete
// with consensus equal to the generator's hash-derived truth.
func (s *liveSystem) check(st *laneStats) error {
	if st.doubleCompleted > 0 || st.stale > 0 {
		return fmt.Errorf("%d tasks accepted twice, %d answers for unknown task ids", st.doubleCompleted, st.stale)
	}
	if len(st.enqueued) == 0 {
		return errors.New("no task was enqueued")
	}
	return within(checkTimeout, func() error {
		for _, e := range st.enqueued {
			ts, ok := s.topo.front.CoreResult(e.id)
			if !ok {
				return fmt.Errorf("task %d: no result", e.id)
			}
			if ts.State != "complete" {
				return fmt.Errorf("task %d: state %q, want complete", e.id, ts.State)
			}
			if !slices.Equal(ts.Consensus, e.tmpl.labels) {
				return fmt.Errorf("task %d: consensus %v, want %v", e.id, ts.Consensus, e.tmpl.labels)
			}
		}
		return nil
	})
}
