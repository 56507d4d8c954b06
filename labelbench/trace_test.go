package main

import (
	"sync"
	"testing"
)

// fakeClock hands the tracer a clock the test sets.
type fakeClock struct {
	mu  sync.Mutex
	now int64
}

func (c *fakeClock) set(t int64) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
}

func (c *fakeClock) read() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// at runs f on its own goroutine with the clock at t and waits for it, as
// a server goroutine records its span while the client's span is open.
func at(c *fakeClock, t int64, f func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.set(t)
		f()
	}()
	wg.Wait()
}

func TestSelfTimeAcrossGoroutines(t *testing.T) {
	clk := &fakeClock{}
	tr := newTracer(2)
	tr.now = clk.read
	tr.on.Store(true)

	// Lane 0: round [0,100] ⊃ frame [10,90] ⊃ router [20,80] ⊃ node
	// [30,40] and barrier [45,75]. Every hop below the round runs on
	// another goroutine, like the wire server and the nodes.
	clk.set(0)
	round := tr.begin(0, hopRound, "lane.round", 16)
	var frame, router, node, barrier int32
	at(clk, 10, func() { frame = tr.begin(0, hopClient, "wire.frame", 2) })
	at(clk, 20, func() { router = tr.begin(0, hopRouter, "router.fetch", 1) })
	at(clk, 30, func() { node = tr.begin(0, hopNode, "fabric.fetch", 1) })
	// Lane 1 interleaves a span of its own; it must not become a child
	// of lane 0's spans.
	at(clk, 35, func() { tr.begin(1, hopNode, "fabric.submit", 1) })
	at(clk, 40, func() { tr.end(0, hopNode, node) })
	at(clk, 45, func() { barrier = tr.begin(0, hopNode, "repl.barrier", 1) })
	at(clk, 75, func() { tr.end(0, hopNode, barrier) })
	at(clk, 80, func() { tr.end(0, hopRouter, router) })
	at(clk, 90, func() { tr.end(0, hopClient, frame) })
	clk.set(100)
	tr.end(0, hopRound, round)
	at(clk, 100, func() { tr.end(1, hopNode, 0) })

	want := map[string]struct {
		count int
		total float64
		self  float64
	}{
		"lane.round":    {1, 100, 20},
		"wire.frame":    {1, 80, 20},
		"router.fetch":  {1, 60, 20}, // 60 - 10 (node) - 30 (barrier)
		"fabric.fetch":  {1, 10, 10},
		"repl.barrier":  {1, 30, 30},
		"fabric.submit": {1, 65, 65},
	}
	got := tr.stats()
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Errorf("%s: no spans", name)
			continue
		}
		if g.count != w.count || g.total != w.total || g.self != w.self {
			t.Errorf("%s: count=%d total=%v self=%v, want %d %v %v", name, g.count, g.total, g.self, w.count, w.total, w.self)
		}
	}
	if got["wire.frame"].items != 2 || got["lane.round"].items != 16 {
		t.Errorf("items: frame=%d round=%d, want 2 and 16", got["wire.frame"].items, got["lane.round"].items)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Children that overlap, or stick out of the parent, are counted once
	// and only inside the parent.
	spans := []span{
		{name: "p", parent: -1, start: 0, end: 100},
		{name: "c", parent: 0, start: 10, end: 50},
		{name: "c", parent: 0, start: 40, end: 60},
		{name: "c", parent: 0, start: 90, end: 130},
	}
	st := selfTimes(spans)
	if got := st["p"].self; got != 40 {
		t.Errorf("parent self = %v, want 40 (100 - [10,60] - [90,100])", got)
	}
}

func TestSpansOpenAtStopAreDropped(t *testing.T) {
	clk := &fakeClock{}
	tr := newTracer(1)
	tr.now = clk.read
	tr.on.Store(true)
	frame := tr.begin(0, hopClient, "wire.frame", 1)
	clk.set(10)
	tr.on.Store(false)
	// The op that would have been the frame's child starts after the stop.
	if i := tr.begin(0, hopNode, "fabric.fetch", 1); i != -1 {
		t.Fatalf("begin after stop recorded span %d", i)
	}
	clk.set(50)
	tr.end(0, hopClient, frame)
	if st := tr.stats(); st["wire.frame"] != nil {
		t.Errorf("a span still open at the stop was kept: %+v", st["wire.frame"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin(0, hopRound, "lane.round", 1)
	tr.end(0, hopRound, i)
	if i != -1 || tr.active() {
		t.Errorf("nil tracer: begin=%d active=%v", i, tr.active())
	}
}
