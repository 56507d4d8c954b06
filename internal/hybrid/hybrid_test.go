package hybrid

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/learn"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
	"github.com/clamshell/clamshell/internal/stats"
)

// ---------------------------------------------------------------------------
// Live == offline equivalence property.
//
// The plane's determinism contract: streaming a label sequence through the
// live machinery (queue, pump loop, decision re-ingestion) produces exactly
// the auto-finalize and re-prioritization decisions a straightforward
// sequential committee — fitted on the same labels in the same order,
// sweeping candidates after every event — produces offline.

// scriptedPool is a Decider that plays the shard's part: it accepts
// decisions for pending tasks and, like a real shard, emits the resulting
// ByModel finalize event back into the plane.
type scriptedPool struct {
	plane   *Plane
	shapes  map[int]server.LabelEvent // enqueued event per task (for re-emission)
	pending map[int]bool
	final   []decision
	repri   []decision
}

func (d *scriptedPool) AutoFinalize(id int, labels []int) bool {
	if !d.pending[id] {
		return false
	}
	delete(d.pending, id)
	d.final = append(d.final, decision{taskID: id, labels: labels})
	enq := d.shapes[id]
	d.plane.Ingest(server.LabelEvent{
		Kind: server.LabelFinalized, Task: id,
		Features: enq.Features, Classes: enq.Classes, Records: enq.Records,
		Labels: labels, ByModel: true,
	})
	return true
}

func (d *scriptedPool) Reprioritize(id, prio int) bool {
	if !d.pending[id] {
		return false
	}
	d.repri = append(d.repri, decision{taskID: id, priority: prio})
	return true
}

// refLearner is the offline reference: one committee per shape, fitted and
// swept sequentially with no concurrency machinery at all.
type refLearner struct {
	key       jobKey
	committee *learn.Committee
	rng       *rand.Rand
	X         [][]float64
	Y         []int
	trained   int
	cands     map[int]*candidate
}

type reference struct {
	cfg      Config
	learners map[jobKey]*refLearner
	final    []decision
	repri    []decision
}

func newReference(cfg Config) *reference {
	cfg.fillDefaults()
	return &reference{cfg: cfg, learners: make(map[jobKey]*refLearner)}
}

func (r *reference) learner(key jobKey) *refLearner {
	if l, ok := r.learners[key]; ok {
		return l
	}
	seed := r.cfg.Seed ^ int64(key.dim)<<32 ^ int64(key.classes)
	l := &refLearner{
		key:       key,
		committee: learn.NewCommittee(key.dim, key.classes, r.cfg.CommitteeSize),
		rng:       stats.NewRand(seed),
		cands:     make(map[int]*candidate),
	}
	r.learners[key] = l
	return l
}

func (r *reference) sorted() []*refLearner {
	out := make([]*refLearner, 0, len(r.learners))
	for _, l := range r.learners {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key.dim != out[j].key.dim {
			return out[i].key.dim < out[j].key.dim
		}
		return out[i].key.classes < out[j].key.classes
	})
	return out
}

func (l *refLearner) sortedCands() []*candidate {
	out := make([]*candidate, 0, len(l.cands))
	for _, c := range l.cands {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// apply absorbs one event and sweeps, exactly like one live pump pass over
// a single-event batch.
func (r *reference) apply(ev server.LabelEvent) {
	key, ok := shapeOf(ev)
	if !ok {
		return
	}
	switch ev.Kind {
	case server.LabelEnqueued:
		l := r.learner(key)
		l.cands[ev.Task] = &candidate{id: ev.Task, features: ev.Features, priority: ev.Priority}
	case server.LabelFinalized:
		l := r.learner(key)
		delete(l.cands, ev.Task)
		if ev.ByModel || len(ev.Labels) != len(ev.Features) {
			return
		}
		for rec, x := range ev.Features {
			l.X = append(l.X, x)
			l.Y = append(l.Y, ev.Labels[rec])
		}
		l.trained++
		l.committee.Fit(l.X, l.Y, l.rng)
	}
	r.sweep()
}

func (r *reference) sweep() {
	for _, l := range r.sorted() {
		if l.trained < r.cfg.MinTrained || !l.committee.Trained() || len(l.cands) == 0 {
			continue
		}
		for _, c := range l.sortedCands() {
			labels, confident := refConfident(l.committee, c.features, r.cfg.Confidence)
			if !confident {
				continue
			}
			delete(l.cands, c.id)
			r.final = append(r.final, decision{taskID: c.id, labels: labels})
		}
	}
}

func refConfident(c *learn.Committee, features [][]float64, confidence float64) ([]int, bool) {
	labels := make([]int, len(features))
	for rec, x := range features {
		proba := c.Proba(x)
		best, bestV := 0, proba[0]
		for i := 1; i < len(proba); i++ {
			if proba[i] > bestV {
				best, bestV = i, proba[i]
			}
		}
		if bestV < confidence {
			return nil, false
		}
		labels[rec] = best
	}
	return labels, true
}

func (r *reference) relabel() {
	for _, l := range r.sorted() {
		if l.trained < r.cfg.MinTrained || !l.committee.Trained() || len(l.cands) == 0 {
			continue
		}
		for _, c := range l.sortedCands() {
			entropy := 0.0
			for _, x := range c.features {
				if e := l.committee.VoteEntropy(x); e > entropy {
					entropy = e
				}
			}
			prio := int(entropy*float64(r.cfg.MaxPriority) + 0.5)
			if prio != c.priority {
				r.repri = append(r.repri, decision{taskID: c.id, priority: prio})
				c.priority = prio
			}
		}
	}
}

// clusterPoint draws a feature vector for class y: class centers sit on a
// lattice far apart relative to the noise, so the committee converges fast.
func clusterPoint(rng *rand.Rand, dim, y int) []float64 {
	x := make([]float64, dim)
	for d := range x {
		center := -2.0
		if (y+d)%2 == 1 {
			center = 2.0
		}
		x[d] = center + rng.NormFloat64()*0.5
	}
	return x
}

func TestLiveOfflineEquivalence(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + int64(trial)))
			shapes := [][2]int{{2, 2}, {3, 3}} // (dim, classes)
			cfg := Config{Confidence: 0.9, MinTrained: 6, CommitteeSize: 3, Seed: 77 + int64(trial)}

			pool := &scriptedPool{shapes: make(map[int]server.LabelEvent), pending: make(map[int]bool)}
			p := New(cfg, pool)
			pool.plane = p
			ref := newReference(cfg)

			truth := make(map[int][]int)
			var open []int // ids eligible for a human finalize
			nextID := 1
			for step := 0; step < 220; step++ {
				// Drop ids the model already finalized on the live side.
				live := open[:0]
				for _, id := range open {
					if pool.pending[id] {
						live = append(live, id)
					}
				}
				open = live

				var ev server.LabelEvent
				switch {
				case len(open) > 0 && rng.Float64() < 0.1:
					// Partial-vote noise: the plane must ignore it.
					id := open[rng.Intn(len(open))]
					ev = server.LabelEvent{Kind: server.LabelAnswered, Task: id,
						Labels: truth[id], Records: len(truth[id]), Answers: 1}
				case len(open) == 0 || rng.Float64() < 0.45:
					sh := shapes[rng.Intn(len(shapes))]
					nrec := 1 + rng.Intn(2)
					feats := make([][]float64, nrec)
					labels := make([]int, nrec)
					for rec := range feats {
						y := rng.Intn(sh[1])
						feats[rec] = clusterPoint(rng, sh[0], y)
						labels[rec] = y
					}
					id := nextID
					nextID++
					ev = server.LabelEvent{Kind: server.LabelEnqueued, Task: id,
						Features: feats, Classes: sh[1], Records: nrec,
						Priority: rng.Intn(3)}
					truth[id] = labels
					open = append(open, id)
					pool.shapes[id] = ev
					pool.pending[id] = true
				default:
					i := rng.Intn(len(open))
					id := open[i]
					open = append(open[:i], open[i+1:]...)
					delete(pool.pending, id)
					enq := pool.shapes[id]
					labels := make([]int, len(truth[id]))
					for rec, y := range truth[id] {
						if rng.Float64() < 0.1 { // crowd noise
							y = (y + 1) % enq.Classes
						}
						labels[rec] = y
					}
					ev = server.LabelEvent{Kind: server.LabelFinalized, Task: id,
						Features: enq.Features, Classes: enq.Classes,
						Records: enq.Records, Labels: labels}
				}

				// A model decision mid-stream removes the task from the live
				// pool; re-mark human finalizes so the scripted pool state
				// matches (the generator never finalizes a model-taken id).
				p.Ingest(ev)
				p.Pump()
				ref.apply(ev)
			}

			if len(pool.final) == 0 {
				t.Fatal("trial produced no auto-finalize decisions; generator needs retuning")
			}
			if fmt.Sprintf("%v", pool.final) != fmt.Sprintf("%v", ref.final) {
				t.Fatalf("auto-finalize divergence:\nlive    = %v\noffline = %v", pool.final, ref.final)
			}

			// The uncertainty sweep must agree too.
			p.Relabel()
			ref.relabel()
			if fmt.Sprintf("%v", pool.repri) != fmt.Sprintf("%v", ref.repri) {
				t.Fatalf("re-prioritization divergence:\nlive    = %v\noffline = %v", pool.repri, ref.repri)
			}

			snap := p.Snapshot()
			if snap.ModelLabels != uint64(len(pool.final)) {
				t.Fatalf("ModelLabels = %d, want %d", snap.ModelLabels, len(pool.final))
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Goroutine lifecycle: Start/Close must join the pump loop and every
// shadow retrainer, even when learners were created mid-flight.

type noopDecider struct{}

func (noopDecider) AutoFinalize(int, []int) bool { return false }
func (noopDecider) Reprioritize(int, int) bool   { return false }

func TestPlaneCloseLeavesNoGoroutines(t *testing.T) {
	defer servertest.VerifyNone(t)()
	p := New(Config{RelabelInterval: time.Millisecond, MinTrained: 1}, noopDecider{})
	p.Start()
	rng := rand.New(rand.NewSource(5))
	// Two shapes -> two learners -> two shadow retrainer goroutines.
	for id := 1; id <= 8; id++ {
		dim := 2 + id%2
		x := [][]float64{clusterPoint(rng, dim, id%2)}
		p.Ingest(server.LabelEvent{Kind: server.LabelEnqueued, Task: id,
			Features: x, Classes: 2, Records: 1})
		p.Ingest(server.LabelEvent{Kind: server.LabelFinalized, Task: id,
			Features: x, Classes: 2, Records: 1, Labels: []int{id % 2}})
	}
	p.Pump()
	p.Close()
	p.Close() // idempotent
	if s := p.Snapshot(); s.HumanLabels != 8 {
		t.Fatalf("HumanLabels = %d, want 8 (state must stay readable after Close)", s.HumanLabels)
	}
}

// ---------------------------------------------------------------------------
// Uncertainty re-prioritization against a recording decider: a candidate
// the model cannot call confidently is re-bucketed by vote entropy.

func TestRelabelRebucketsUncertainCandidate(t *testing.T) {
	pool := &scriptedPool{shapes: make(map[int]server.LabelEvent), pending: make(map[int]bool)}
	cfg := Config{Confidence: 0.95, MinTrained: 10, Seed: 3}
	p := New(cfg, pool)
	pool.plane = p

	rng := rand.New(rand.NewSource(9))
	// Train on clean separable data.
	for id := 1; id <= 12; id++ {
		y := id % 2
		p.Ingest(server.LabelEvent{Kind: server.LabelFinalized, Task: id,
			Features: [][]float64{clusterPoint(rng, 2, y)}, Classes: 2,
			Records: 1, Labels: []int{y}})
	}
	// A candidate exactly between the clusters: the committee cannot clear
	// 0.95 there, so it survives the pump sweep and Relabel must move it off
	// its initial priority (entropy quantizes to round(e*8), never 5).
	mid := server.LabelEvent{Kind: server.LabelEnqueued, Task: 100,
		Features: [][]float64{{0, 0}}, Classes: 2, Records: 1, Priority: 5}
	pool.shapes[100] = mid
	pool.pending[100] = true
	p.Ingest(mid)
	p.Pump()

	moved := p.Relabel()
	if moved != 1 || len(pool.repri) != 1 || pool.repri[0].taskID != 100 {
		t.Fatalf("moved = %d, repri = %v; want task 100 re-bucketed once", moved, pool.repri)
	}
	if pool.repri[0].priority == 5 {
		t.Fatalf("re-bucketed to its own priority: %+v", pool.repri[0])
	}
	// The sweep is stable: a second pass with no new labels moves nothing.
	if again := p.Relabel(); again != 0 {
		t.Fatalf("second Relabel moved %d tasks, want 0", again)
	}
	if s := p.Snapshot(); s.Reprioritized != 1 || s.Pending != 1 {
		t.Fatalf("snapshot = %+v, want 1 reprioritized / 1 pending", s)
	}
}

// ---------------------------------------------------------------------------
// End-to-end scenario (the PR's acceptance bar): a simulated crowd labels
// feature-carrying tasks through the real shard; with the plane in the
// loop, the pool must finish the same workload with at least 30% fewer
// human labels at equal-or-better consensus accuracy.

// runScenario labels nTasks 2-class tasks (quorum 3) through a live shard
// with a 90%-accurate simulated crowd, optionally with the hybrid plane in
// the loop, and reports the human labels consumed, the consensus accuracy
// against ground truth, and the total crowd cost.
func runScenario(t testing.TB, nTasks int, withModel bool) (humanLabels int, accuracy float64, dollars float64) {
	t.Helper()
	const quorum, workers = 3, 6
	now := time.Unix(1_700_000_000, 0)
	s := server.NewShardSet(server.Config{
		Now:           func() time.Time { return now },
		WorkerTimeout: time.Hour,
	}, 1, 0, 1)

	rng := rand.New(rand.NewSource(4242))
	truth := make(map[int]int)
	specs := make([]server.TaskSpec, 0, nTasks)
	classes := make([]int, nTasks)
	for i := 0; i < nTasks; i++ {
		y := rng.Intn(2)
		classes[i] = y
		specs = append(specs, server.TaskSpec{
			Records:  []string{fmt.Sprintf("record-%d", i)},
			Classes:  2,
			Quorum:   quorum,
			Features: [][]float64{clusterPoint(rng, 2, y)},
		})
	}

	var plane *Plane
	if withModel {
		plane = New(Config{Confidence: 0.95, MinTrained: 25, Seed: 11}, s)
		s.Shards()[0].SetLabelSink(plane.Ingest)
		defer plane.Close()
	}

	ids, err := s.CoreEnqueue(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		truth[id] = classes[i]
	}

	var wids []int
	for w := 0; w < workers; w++ {
		wids = append(wids, s.CoreJoin(fmt.Sprintf("crowd-%d", w)))
	}

	remaining := len(ids)
	for round := 0; remaining > 0; round++ {
		if round > 50*nTasks {
			t.Fatal("scenario is not converging")
		}
		for _, w := range wids {
			a, disp := s.CoreFetch(w)
			if disp != server.FetchAssigned {
				continue
			}
			label := truth[a.TaskID]
			if rng.Float64() >= 0.9 {
				label = 1 - label
			}
			reply, cerr := s.CoreSubmit(w, a.TaskID, []int{label})
			if cerr != nil {
				t.Fatal(cerr.Err)
			}
			if reply.Accepted {
				humanLabels++
			}
		}
		now = now.Add(time.Second)
		if plane != nil {
			plane.Pump()
			if round%5 == 0 {
				plane.Relabel()
			}
		}
		remaining = 0
		for _, id := range ids {
			if st, ok := s.CoreResult(id); !ok || st.State != "complete" {
				remaining++
			}
		}
	}

	correct := 0
	for _, id := range ids {
		st, ok := s.CoreResult(id)
		if !ok || len(st.Consensus) != 1 {
			t.Fatalf("task %d has no consensus: %+v", id, st)
		}
		if st.Consensus[0] == truth[id] {
			correct++
		}
	}
	return humanLabels, float64(correct) / float64(nTasks), s.Shards()[0].AccruedCosts().Total().Dollars()
}

func TestHybridScenarioEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-task crowd simulation")
	}
	crowdLabels, crowdAcc, crowdCost := runScenario(t, 400, false)
	hybridLabels, hybridAcc, hybridCost := runScenario(t, 400, true)
	t.Logf("pure crowd: %d human labels, accuracy %.3f, cost $%.2f", crowdLabels, crowdAcc, crowdCost)
	t.Logf("hybrid:     %d human labels, accuracy %.3f, cost $%.2f", hybridLabels, hybridAcc, hybridCost)

	saved := 1 - float64(hybridLabels)/float64(crowdLabels)
	if saved < 0.30 {
		t.Fatalf("model in the loop saved only %.1f%% of human labels, want >= 30%%", saved*100)
	}
	if hybridAcc < crowdAcc {
		t.Fatalf("hybrid accuracy %.3f fell below pure-crowd accuracy %.3f", hybridAcc, crowdAcc)
	}
	if hybridCost >= crowdCost {
		t.Fatalf("hybrid cost $%.2f did not undercut pure-crowd cost $%.2f", hybridCost, crowdCost)
	}
}
