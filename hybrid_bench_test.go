package clamshell

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/hybrid"
	"github.com/clamshell/clamshell/internal/server"
)

// BenchmarkHybridLoop measures the hybrid learning plane's economics: the
// same feature-carrying workload labeled by a 90%-accurate simulated crowd
// with and without the model in the loop. It reports human labels per task
// and consensus labels per dollar for both modes, and fails if the model
// stops saving at least 30% of human labels at equal-or-better consensus
// accuracy — the CI bench-smoke run doubles as the regression gate for the
// hybrid loop's headline claim.
func BenchmarkHybridLoop(b *testing.B) {
	const tasks = 150
	for i := 0; i < b.N; i++ {
		crowdLabels, crowdAcc, crowdCost := hybridScenario(b, tasks, false)
		hybridLabels, hybridAcc, hybridCost := hybridScenario(b, tasks, true)
		saved := 1 - float64(hybridLabels)/float64(crowdLabels)
		if saved < 0.30 {
			b.Fatalf("model in the loop saved only %.1f%% of human labels, want >= 30%%", saved*100)
		}
		if hybridAcc < crowdAcc {
			b.Fatalf("hybrid accuracy %.3f fell below pure-crowd accuracy %.3f", hybridAcc, crowdAcc)
		}
		if i == 0 {
			b.ReportMetric(float64(hybridLabels)/tasks, "human-labels/task")
			b.ReportMetric(saved*100, "labels-saved-%")
			b.ReportMetric(tasks/crowdCost, "crowd-labels/$")
			b.ReportMetric(tasks/hybridCost, "hybrid-labels/$")
		}
	}
}

// hybridScenario labels nTasks 2-class feature-carrying tasks (quorum 3)
// through a live shard with a 90%-accurate simulated crowd, optionally
// with the learning plane in the loop. It returns the human labels
// consumed, the consensus accuracy against ground truth, and the total
// crowd spend in dollars.
func hybridScenario(tb testing.TB, nTasks int, withModel bool) (humanLabels int, accuracy float64, dollars float64) {
	tb.Helper()
	const quorum, workers = 3, 6
	now := time.Unix(1_700_000_000, 0)
	s := server.NewShardSet(server.Config{
		Now:           func() time.Time { return now },
		WorkerTimeout: time.Hour,
	}, 1, 0, 1)

	rng := rand.New(rand.NewSource(4242))
	specs := make([]server.TaskSpec, nTasks)
	classes := make([]int, nTasks)
	for i := range specs {
		y := rng.Intn(2)
		classes[i] = y
		c := float64(y*4 - 2)
		specs[i] = server.TaskSpec{
			Records: []string{fmt.Sprintf("record-%d", i)},
			Classes: 2,
			Quorum:  quorum,
			Features: [][]float64{{
				c + rng.NormFloat64()*0.5, -c + rng.NormFloat64()*0.5,
			}},
		}
	}

	var plane *hybrid.Plane
	if withModel {
		plane = hybrid.New(hybrid.Config{Confidence: 0.95, MinTrained: 25, Seed: 11}, s)
		s.Shards()[0].SetLabelSink(plane.Ingest)
		defer plane.Close()
	}

	ids, err := s.CoreEnqueue(specs)
	if err != nil {
		tb.Fatal(err)
	}
	truth := make(map[int]int, nTasks)
	for i, id := range ids {
		truth[id] = classes[i]
	}
	var wids []int
	for w := 0; w < workers; w++ {
		wids = append(wids, s.CoreJoin(fmt.Sprintf("crowd-%d", w)))
	}

	for remaining := len(ids); remaining > 0; {
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
				tb.Fatal(cerr.Err)
			}
			if reply.Accepted {
				humanLabels++
			}
		}
		now = now.Add(time.Second)
		if plane != nil {
			plane.Pump()
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
		st, _ := s.CoreResult(id)
		if len(st.Consensus) == 1 && st.Consensus[0] == truth[id] {
			correct++
		}
	}
	return humanLabels, float64(correct) / float64(nTasks), s.Shards()[0].AccruedCosts().Total().Dollars()
}
