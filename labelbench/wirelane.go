package main

import (
	"net"
	"time"

	"github.com/clamshell/clamshell/internal/wire"
)

// wireLane is a lane on one wire v2 connection: each round is one batched
// frame carrying every worker's submit and fetch, built in one reused
// wire.Batch.
type wireLane struct {
	conn    net.Conn
	cl      *wire.Client
	batch   *wire.Batch
	lane    int
	tr      *tracer
	in      *inputs
	subs    []*wire.SubmitResult
	fetches []*wire.FetchResult
}

func newWireLane(conn net.Conn, lane int, tr *tracer, in *inputs) (*wireLane, error) {
	conn.SetDeadline(time.Now().Add(opWatchdog))
	cl, err := wire.NewClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &wireLane{
		conn: conn, cl: cl, batch: cl.NewBatch(), lane: lane, tr: tr, in: in,
		subs:    make([]*wire.SubmitResult, workersPerLane),
		fetches: make([]*wire.FetchResult, workersPerLane),
	}, nil
}

func (w *wireLane) do(ops int) error {
	w.conn.SetDeadline(time.Now().Add(opWatchdog))
	span := w.tr.begin(w.lane, hopClient, "wire.frame", ops)
	err := w.batch.Do()
	w.tr.end(w.lane, hopClient, span)
	return err
}

func (w *wireLane) join(names []string) ([]int, error) {
	w.batch.Reset()
	res := make([]*wire.JoinResult, len(names))
	for i, n := range names {
		res[i] = w.batch.Join(n)
	}
	if err := w.do(len(names)); err != nil {
		return nil, err
	}
	ids := make([]int, len(names))
	for i, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
		ids[i] = r.ID
	}
	return ids, nil
}

func (w *wireLane) enqueue(b *batchTmpl) ([]int, error) {
	w.batch.Reset()
	r := w.batch.SubmitTasks(b.specs)
	if err := w.do(1); err != nil {
		return nil, err
	}
	return r.IDs, r.Err
}

func (w *wireLane) round(ws []*worker, now func() int64) error {
	w.batch.Reset()
	ops := 0
	for i, wk := range ws {
		w.subs[i] = nil
		if wk.held != nil {
			w.subs[i] = w.batch.Submit(wk.id, wk.heldTask, wk.held.labels)
			ops++
		}
		w.fetches[i] = w.batch.FetchTask(wk.id)
		ops++
	}
	sent := now()
	if err := w.do(ops); err != nil {
		return err
	}
	got := now()
	for i, wk := range ws {
		wk.sentAt, wk.ackAt, wk.gotAt = sent, got, got
		wk.submitted = w.subs[i] != nil
		if s := w.subs[i]; s != nil {
			wk.subErr, wk.accepted, wk.term = s.Err != nil, s.Accepted, s.Terminated
		}
		f := w.fetches[i]
		wk.fetchErr, wk.got, wk.gotTask = f.Err != nil, nil, 0
		if f.Err == nil && f.OK && len(f.Assignment.Records) > 0 {
			wk.got = w.in.byRec0[f.Assignment.Records[0]]
			wk.gotTask = f.Assignment.TaskID
			wk.fetchErr = wk.got == nil // an assignment the generator never made
		}
	}
	return nil
}

func (w *wireLane) close() { w.cl.Close() }
