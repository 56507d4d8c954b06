package server

import (
	"math"
	"testing"
	"time"
)

// fetchCosts reads the shard's accrued spend (the /api/costs view) in
// dollars, keyed like that endpoint's JSON.
func fetchCosts(s *Shard) map[string]float64 {
	acct := s.AccruedCosts()
	return map[string]float64{
		"wait_pay_dollars":       acct.WaitPay.Dollars(),
		"work_pay_dollars":       acct.WorkPay.Dollars(),
		"terminated_pay_dollars": acct.TerminatedPay.Dollars(),
		"total_dollars":          acct.Total().Dollars(),
	}
}

func TestCostsWaitPayAccrues(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock})
	id, _ := c.Join("idler")
	// A live idler heartbeats; ten one-minute waits accrue in full.
	for i := 0; i < 10; i++ {
		now = now.Add(time.Minute)
		if err := c.Heartbeat(id); err != nil {
			t.Fatal(err)
		}
	}
	costs := fetchCosts(s)
	// $.05/min x 10 min = $0.50.
	if math.Abs(costs["wait_pay_dollars"]-0.5) > 1e-6 {
		t.Fatalf("wait pay = %v, want 0.5", costs["wait_pay_dollars"])
	}
}

// A worker that stops heartbeating must stop billing wait pay: the costs
// view expires stale workers before accruing, and a dead worker's wait span is
// clipped at the moment its liveness lapsed (last heartbeat + timeout) —
// not at whenever the expiry happened to be noticed.
func TestCostsDeadWorkerWaitPayCutoff(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock, WorkerTimeout: 2 * time.Minute})
	c.Join("ghost")
	// The ghost never heartbeats again. An hour later, the first costs call
	// must bill only the 2 minutes of provable liveness, not the hour.
	now = now.Add(time.Hour)
	costs := fetchCosts(s)
	if math.Abs(costs["wait_pay_dollars"]-0.10) > 1e-6 {
		t.Fatalf("wait pay = %v, want 0.10 (join to liveness lapse only)", costs["wait_pay_dollars"])
	}
	// The accrual is settled, not per-view: asking again later adds nothing.
	now = now.Add(time.Hour)
	costs = fetchCosts(s)
	if math.Abs(costs["wait_pay_dollars"]-0.10) > 1e-6 {
		t.Fatalf("wait pay after second view = %v, want 0.10", costs["wait_pay_dollars"])
	}
}

func TestCostsWorkAndTerminatedPay(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock, SpeculationLimit: 1})
	ids, _ := c.SubmitTasks([]TaskSpec{{Records: []string{"a", "b", "c"}, Classes: 2}})

	w1, _ := c.Join("winner")
	w2, _ := c.Join("loser")
	c.FetchTask(w1)
	c.FetchTask(w2) // speculative duplicate
	c.Submit(w1, ids[0], []int{0, 1, 0})
	c.Submit(w2, ids[0], []int{1, 1, 1}) // terminated but paid

	costs := fetchCosts(s)
	// 3 records at $.02 each, for both completed and terminated.
	if math.Abs(costs["work_pay_dollars"]-0.06) > 1e-6 {
		t.Fatalf("work pay = %v, want 0.06", costs["work_pay_dollars"])
	}
	if math.Abs(costs["terminated_pay_dollars"]-0.06) > 1e-6 {
		t.Fatalf("terminated pay = %v, want 0.06", costs["terminated_pay_dollars"])
	}
	if costs["total_dollars"] < costs["work_pay_dollars"]+costs["terminated_pay_dollars"]-1e-9 {
		t.Fatal("total below components")
	}
}

func TestCostsWaitPausesWhileWorking(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock})
	ids, _ := c.SubmitTasks([]TaskSpec{{Records: []string{"a"}, Classes: 2}})
	w, _ := c.Join("worker")
	now = now.Add(2 * time.Minute) // waits 2 min
	c.FetchTask(w)
	now = now.Add(30 * time.Minute) // works 30 min: NOT wait-paid
	c.Submit(w, ids[0], []int{0})
	now = now.Add(1 * time.Minute) // waits 1 min after
	costs := fetchCosts(s)
	// 3 minutes of waiting at $.05 = $0.15; plus $0.02 work pay.
	if math.Abs(costs["wait_pay_dollars"]-0.15) > 1e-6 {
		t.Fatalf("wait pay = %v, want 0.15 (work time must not accrue)", costs["wait_pay_dollars"])
	}
}

func TestCostsCustomRates(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock, WorkerTimeout: time.Hour, Costs: CostConfig{
		WaitPayPerMin: 10_000,  // $0.01/min
		RecordPay:     100_000, // $0.10/record
	}})
	ids, _ := c.SubmitTasks([]TaskSpec{{Records: []string{"a", "b"}, Classes: 2}})
	w, _ := c.Join("worker")
	now = now.Add(3 * time.Minute) // waits 3 min
	c.FetchTask(w)
	c.Submit(w, ids[0], []int{0, 1})
	costs := fetchCosts(s)
	if math.Abs(costs["wait_pay_dollars"]-0.03) > 1e-6 {
		t.Fatalf("wait pay = %v, want 0.03 at $0.01/min", costs["wait_pay_dollars"])
	}
	if math.Abs(costs["work_pay_dollars"]-0.20) > 1e-6 {
		t.Fatalf("work pay = %v, want 0.20 at $0.10/record", costs["work_pay_dollars"])
	}
	// Zero rates fill in the paper's defaults.
	var cc CostConfig
	cc.fillDefaults()
	if cc.WaitPayPerMin.Dollars() != 0.05 || cc.RecordPay.Dollars() != 0.02 {
		t.Fatalf("defaults wrong: %v %v", cc.WaitPayPerMin, cc.RecordPay)
	}
}
