package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span hops, outermost first. A span's parent is the open span of the
// same lane at the nearest lower hop: each lane has at most one op in
// flight at each hop, so that span is the one that caused it, even when
// the child runs on a server goroutine.
const (
	hopRound  = iota // one lane round (or one requester enqueue)
	hopClient        // one wire frame or HTTP request
	hopRouter        // router Core op (replicated-routed only)
	hopNode          // node Core op, or the node's replication barrier
	nHops
)

type span struct {
	name       string
	parent     int32 // index into the same lane's spans; -1 for a root
	start, end int64 // ns since the tracer's epoch; end -1 while open
	n          int32 // work items the span carried (tasks, ops)
}

type laneTrace struct {
	mu    sync.Mutex
	spans []span
	open  [nHops]int32
}

// tracer keeps every span in memory, one list per lane, and writes them
// out when the run ends. A nil *tracer records nothing, so untraced runs
// pay one nil check per boundary.
type tracer struct {
	now   func() int64
	on    atomic.Bool // spans open only while on: the measured window
	lanes []*laneTrace
}

func newTracer(lanes int) *tracer {
	epoch := time.Now()
	t := &tracer{now: func() int64 { return int64(time.Since(epoch)) }}
	for i := 0; i < lanes; i++ {
		lt := &laneTrace{spans: make([]span, 0, 1<<16)}
		for h := range lt.open {
			lt.open[h] = -1
		}
		t.lanes = append(t.lanes, lt)
	}
	return t
}

// begin opens a span for lane at hop and returns its handle (-1 when not
// recorded).
func (t *tracer) begin(lane, hop int, name string, n int) int32 {
	if t == nil || lane < 0 || lane >= len(t.lanes) || !t.on.Load() {
		return -1
	}
	lt := t.lanes[lane]
	now := t.now()
	lt.mu.Lock()
	parent := int32(-1)
	for h := hop - 1; h >= 0; h-- {
		if lt.open[h] >= 0 {
			parent = lt.open[h]
			break
		}
	}
	idx := int32(len(lt.spans))
	lt.spans = append(lt.spans, span{name: name, parent: parent, start: now, end: -1, n: int32(n)})
	lt.open[hop] = idx
	lt.mu.Unlock()
	return idx
}

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// end closes the span begin returned. A span still open when tracing
// stops is left unclosed and dropped from the analysis: its children
// after the stop were never recorded.
func (t *tracer) end(lane, hop int, idx int32) {
	if t == nil || idx < 0 || !t.on.Load() {
		return
	}
	lt := t.lanes[lane]
	now := t.now()
	lt.mu.Lock()
	lt.spans[idx].end = now
	if lt.open[hop] == idx {
		lt.open[hop] = -1
	}
	lt.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	count int
	items int64   // sum of span.n
	total float64 // summed duration, ns
	self  float64 // summed self time, ns
}

func (a *spanStat) add(b *spanStat) {
	a.count += b.count
	a.items += b.items
	a.total += b.total
	a.self += b.self
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]*spanStat {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	out := make(map[string]*spanStat)
	var iv [][2]int64
	for i, s := range spans {
		if s.end < 0 {
			continue // still open when tracing stopped
		}
		iv = iv[:0]
		for _, k := range kids[i] {
			c := spans[k]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		st := out[s.name]
		if st == nil {
			st = &spanStat{}
			out[s.name] = st
		}
		d := float64(s.end - s.start)
		st.count++
		st.items += int64(s.n)
		st.total += d
		st.self += d - float64(covered(iv))
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		curHi = max(curHi, x[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// stats merges every lane's spans by name.
func (t *tracer) stats() map[string]*spanStat {
	out := make(map[string]*spanStat)
	for _, lt := range t.lanes {
		lt.mu.Lock()
		for name, st := range selfTimes(lt.spans) {
			agg := out[name]
			if agg == nil {
				agg = &spanStat{}
				out[name] = agg
			}
			agg.add(st)
		}
		lt.mu.Unlock()
	}
	return out
}

// write dumps every span as CSV: lane,index,parent,name,start_ns,end_ns,n.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "lane,index,parent,name,start_ns,end_ns,n")
	var line []byte
	for l, lt := range t.lanes {
		lt.mu.Lock()
		for i, s := range lt.spans {
			line = strconv.AppendInt(line[:0], int64(l), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, ',')
			line = append(line, s.name...)
			line = append(line, ',')
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(s.n), 10)
			line = append(line, '\n')
			w.Write(line)
		}
		lt.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
