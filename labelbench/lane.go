package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/clamshell/clamshell/internal/server"
)

// The traffic model: closed-loop lanes, each one goroutine on one
// connection, holding one requester and workersPerLane retained workers.
// The requester enqueues a batch and sends the next one only when every
// task of the current batch is complete; workers answer at once with the
// hash-derived truth, so all latency is the system's own.
const (
	lanesPerRun    = 2
	workersPerLane = 16
	batchTasks     = 64
	recordsPerTask = 5 // the paper's Ng
	taskClasses    = 2
	taskQuorum     = 1 // first answer wins
	// templatesPerLane batches of records are built per lane before timing
	// and reused in turn. Tasks are placed on shards and nodes by a hash of
	// their records, so many distinct batches keep one unlucky placement
	// from setting a whole run's latency. Reuse is safe: a batch is only
	// re-enqueued after every task of its previous use completed, so any
	// answer still in flight for the old tasks is a terminated duplicate.
	templatesPerLane = 64
)

// opWatchdog bounds one lane op (a wire frame, an HTTP request, an
// enqueue). A wedged op counts as failed and ends the run with an error.
const opWatchdog = 30 * time.Second

// drainTimeout bounds the wait, after the window closes, for the batches
// still in flight to complete so the run can be checked.
const drainTimeout = 60 * time.Second

// taskTmpl is one task of a batch template: its spec, the truth every
// worker answers with, and the state of its current use.
type taskTmpl struct {
	spec   server.TaskSpec
	labels []int
	batch  *batchTmpl

	id     atomic.Int64 // task id of the current use (0 until acked)
	doneAt atomic.Int64 // ack of the completing answer, ns on the run clock
}

// batchTmpl is one batch of tasks a lane's requester enqueues.
type batchTmpl struct {
	lane     int
	tasks    []*taskTmpl
	specs    []server.TaskSpec
	httpBody []byte // the enqueue request body, built before timing
	pending  atomic.Int64
	startAt  int64 // enqueue start, ns on the run clock
}

// inputs are every lane's batch templates, generated from the seed.
type inputs struct {
	lanes  [][]*batchTmpl
	byRec0 map[string]*taskTmpl // a task's first record → its template
}

// truthLabel is a record's ground-truth class: a content hash (FNV-1a),
// like the loadgen's trueClass, so workers need no shared state.
func truthLabel(rec string, classes int) int {
	h := uint32(2166136261)
	for i := 0; i < len(rec); i++ {
		h ^= uint32(rec[i])
		h *= 16777619
	}
	return int(h>>1) % classes
}

// makeInputs builds every record string, spec, label slice and HTTP
// enqueue body from the seed, before any timing starts.
func makeInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{byRec0: make(map[string]*taskTmpl)}
	for l := 0; l < lanesPerRun; l++ {
		var tmpls []*batchTmpl
		for b := 0; b < templatesPerLane; b++ {
			bt := &batchTmpl{lane: l}
			for t := 0; t < batchTasks; t++ {
				tt := &taskTmpl{batch: bt}
				recs := make([]string, recordsPerTask)
				tt.labels = make([]int, recordsPerTask)
				for j := range recs {
					recs[j] = "r" + strconv.FormatUint(rng.Uint64(), 36) + "-" +
						strconv.Itoa(l) + "." + strconv.Itoa(b) + "." + strconv.Itoa(t) + "." + strconv.Itoa(j)
					tt.labels[j] = truthLabel(recs[j], taskClasses)
				}
				tt.spec = server.TaskSpec{Records: recs, Classes: taskClasses, Quorum: taskQuorum}
				bt.tasks = append(bt.tasks, tt)
				bt.specs = append(bt.specs, tt.spec)
				in.byRec0[recs[0]] = tt
			}
			bt.httpBody = enqueueBody(bt.specs)
			tmpls = append(tmpls, bt)
		}
		in.lanes = append(in.lanes, tmpls)
	}
	return in
}

func enqueueBody(specs []server.TaskSpec) []byte {
	b := []byte(`{"tasks":[`)
	for i, s := range specs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"records":[`...)
		for j, r := range s.Records {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, r...)
			b = append(b, '"')
		}
		b = append(b, `],"classes":`...)
		b = strconv.AppendInt(b, int64(s.Classes), 10)
		b = append(b, `,"quorum":`...)
		b = strconv.AppendInt(b, int64(s.Quorum), 10)
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

// worker is one retained worker's state within its lane, plus the
// outcome of its latest round (filled by the transport).
type worker struct {
	id       int
	held     *taskTmpl // the assignment it holds, nil when idle
	heldTask int

	// Round outcome. The transport stamps each worker's own times on the
	// run clock: when its answer left, when the answer's ack came back
	// and when its fetch's reply came back. On wire one frame carries the
	// whole round, so all workers share its send and reply times; on HTTP
	// each op is its own request and gets its own times.
	sentAt, ackAt, gotAt int64
	submitted            bool
	accepted             bool
	term                 bool
	subErr               bool
	fetchErr             bool
	got                  *taskTmpl
	gotTask              int
}

// transport is one lane's connection: wire v2 batched frames or HTTP/JSON.
type transport interface {
	join(names []string) ([]int, error)
	// enqueue admits a batch and returns its task ids in order.
	enqueue(b *batchTmpl) ([]int, error)
	// round sends every worker's answer (if it holds one) and its next
	// fetch and fills each worker's round outcome, stamping its times with
	// now. A returned error is a transport failure that ends the run.
	round(ws []*worker, now func() int64) error
	close()
}

// laneStats is what one lane measured inside the window.
type laneStats struct {
	rounds   []float64 // worker turnaround while work is queued, µs
	tasks    []float64 // task latency, ms
	batches  []float64 // batch latency, ms
	batchStd []float64 // per-batch std of task latency, ms
	labels   int64     // records labeled by accepted answers

	attempted, failed      int64 // ops, whole run
	accepted, terminated   int64 // answers, window
	fetches, emptyFetches  int64 // fetches, window
	enqueued               []enqueuedTask
	doubleCompleted, stale int64
}

type enqueuedTask struct {
	id   int
	tmpl *taskTmpl
}

// runState is shared by every lane of one run.
type runState struct {
	epoch    time.Time
	tr       *tracer
	winStart atomic.Int64 // ns on the run clock; math.MaxInt64 until open
	winEnd   atomic.Int64
	stop     atomic.Bool  // no new batches
	abort    atomic.Bool  // a lane failed: everyone stops now
	inflight atomic.Int64 // enqueued tasks not yet complete, all lanes
}

func (rs *runState) now() int64 { return int64(time.Since(rs.epoch)) }

func (rs *runState) inWindow(t int64) bool {
	return t >= rs.winStart.Load() && t <= rs.winEnd.Load()
}

// lane drives one closed loop.
type lane struct {
	idx     int
	rs      *runState
	clock   func() int64 // rs.now, bound once per run
	tp      transport
	workers []*worker
	tmpls   []*batchTmpl
	next    int
	cur     *batchTmpl
	lats    []float64 // scratch: the finished batch's task latencies
	st      laneStats
}

// run loops until the window has closed and every enqueued task of every
// lane is complete, or until a failure.
func (l *lane) run() error {
	rs := l.rs
	for {
		if rs.abort.Load() {
			return errors.New("aborted")
		}
		if l.cur != nil && l.cur.pending.Load() == 0 {
			l.finishBatch()
		}
		if l.cur == nil {
			if rs.stop.Load() {
				if rs.inflight.Load() == 0 {
					return nil
				}
			} else if err := l.startBatch(); err != nil {
				return err
			}
		}
		if rs.stop.Load() && rs.now() > rs.winEnd.Load()+int64(drainTimeout) {
			return fmt.Errorf("lane %d: in-flight batches did not complete within %v of the window", l.idx, drainTimeout)
		}
		if err := l.round(); err != nil {
			return err
		}
	}
}

func (l *lane) startBatch() error {
	rs := l.rs
	b := l.tmpls[l.next]
	l.next = (l.next + 1) % len(l.tmpls)
	for _, t := range b.tasks {
		t.id.Store(0)
		t.doneAt.Store(0)
	}
	b.pending.Store(int64(len(b.tasks)))
	rs.inflight.Add(int64(len(b.tasks)))
	b.startAt = rs.now()
	span := rs.tr.begin(l.idx, hopRound, "lane.enqueue", len(b.tasks))
	ids, err := l.tp.enqueue(b)
	rs.tr.end(l.idx, hopRound, span)
	l.st.attempted++
	if err == nil && len(ids) != len(b.tasks) {
		err = fmt.Errorf("enqueue returned %d ids for %d tasks", len(ids), len(b.tasks))
	}
	if err != nil {
		l.st.failed++
		return fmt.Errorf("lane %d enqueue: %w", l.idx, err)
	}
	for i, t := range b.tasks {
		t.id.Store(int64(ids[i]))
		l.st.enqueued = append(l.st.enqueued, enqueuedTask{id: ids[i], tmpl: t})
	}
	l.cur = b
	return nil
}

// finishBatch records the completed batch's latencies. A batch counts,
// with all its tasks, when it completes inside the window, so a window
// edge never keeps just the early or just the late tasks of a batch.
func (l *lane) finishBatch() {
	b := l.cur
	l.cur = nil
	var last int64
	l.lats = l.lats[:0]
	for _, t := range b.tasks {
		done := t.doneAt.Load()
		last = max(last, done)
		// Task latency runs from the start of the enqueue, not its ack: the
		// router admits a batch task by task, so on replicated-routed other
		// workers fetch and finish early tasks of a batch before its ack.
		l.lats = append(l.lats, float64(done-b.startAt)/1e6)
	}
	if l.rs.inWindow(last) {
		l.st.tasks = append(l.st.tasks, l.lats...)
		l.st.batches = append(l.st.batches, float64(last-b.startAt)/1e6)
		l.st.batchStd = append(l.st.batchStd, stddev(l.lats))
	}
}

// round runs one lane round: every worker's answer plus its next fetch.
// Each worker's samples use its own times, so a worker's turnaround and a
// task's completion do not absorb the other workers' ops of the round.
//
// A turnaround sample runs from sending an answer to the reply of the
// fetch that hands the worker its next assignment in the same round. An
// answer whose fetch comes back empty gives no sample: the worker then
// idles until the requester's next batch, which is the requester's pace
// (batch_p50_ms and task_* measure it), not the system's turnaround.
// Counting idle spans would make the tail a mixture of two modes on
// replicated-routed, whose batch enqueue takes seconds.
func (l *lane) round() error {
	rs := l.rs
	span := rs.tr.begin(l.idx, hopRound, "lane.round", len(l.workers))
	err := l.tp.round(l.workers, l.clock)
	if err != nil {
		rs.tr.end(l.idx, hopRound, span)
		l.st.failed++
		return fmt.Errorf("lane %d round: %w", l.idx, err)
	}
	for _, w := range l.workers {
		if w.submitted {
			l.st.attempted++
			win := rs.inWindow(w.ackAt)
			switch {
			case w.subErr:
				l.st.failed++
			case w.accepted:
				l.complete(w.held, w.heldTask, w.ackAt)
				if win {
					l.st.accepted++
					l.st.labels += int64(len(w.held.labels))
				}
			case w.term:
				if win {
					l.st.terminated++
				}
			}
			w.held = nil
		}
		l.st.attempted++
		win := rs.inWindow(w.gotAt)
		if win {
			l.st.fetches++
		}
		switch {
		case w.fetchErr:
			l.st.failed++
		case w.got != nil:
			if w.submitted && win {
				l.st.rounds = append(l.st.rounds, float64(w.gotAt-w.sentAt)/1e3)
			}
			w.held, w.heldTask = w.got, w.gotTask
		default:
			if win {
				l.st.emptyFetches++
			}
		}
	}
	rs.tr.end(l.idx, hopRound, span)
	return nil
}

// complete marks the task an accepted answer finished. With quorum 1 the
// first accepted answer completes the task; a second one, or one for a
// task id the template does not hold, is a correctness failure.
func (l *lane) complete(t *taskTmpl, taskID int, at int64) {
	if t == nil {
		return
	}
	if id := t.id.Load(); id != 0 && id != int64(taskID) {
		l.st.stale++
		return
	}
	if !t.doneAt.CompareAndSwap(0, at) {
		l.st.doubleCompleted++
		return
	}
	t.batch.pending.Add(-1)
	l.rs.inflight.Add(-1)
}
