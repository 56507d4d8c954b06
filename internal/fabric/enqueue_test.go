package fabric

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
)

// statusTasks reads the node's task count from GET /api/status.
func statusTasks(t *testing.T, f *Fabric) int {
	t.Helper()
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/status", nil))
	var st map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("status body %q: %v", rec.Body.String(), err)
	}
	return st["tasks"]
}

// A batch with a valid spec ahead of an invalid one must be refused whole:
// the transports drop the ids on error, so any spec admitted before the bad
// one would be labeled (and paid for) with no requester able to read it.
// Every way into a node — HTTP, wire, and the router in front of it — must
// report the error and leave the node with no tasks.
func TestEnqueueMixedBatchAdmitsNothing(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	valid := server.TaskSpec{Records: []string{"a", "b"}, Classes: 2, Quorum: 1}
	batches := []struct {
		name  string
		specs []server.TaskSpec
		want  error
	}{
		{"no-records", []server.TaskSpec{valid, {Classes: 2}}, server.ErrTaskNoRecords},
		{"bad-features", []server.TaskSpec{valid, {Records: []string{"c", "d"}, Classes: 2,
			Features: [][]float64{{1}}}}, server.ErrTaskBadFeatures},
	}
	legs := []struct {
		name    string
		enqueue func(t *testing.T, node *Fabric, specs []server.TaskSpec) error
	}{
		{"http", func(t *testing.T, node *Fabric, specs []server.TaskSpec) error {
			ts := httptest.NewServer(node)
			defer ts.Close()
			_, err := server.NewClient(ts.URL).SubmitTasks(specs)
			return err
		}},
		{"wire", func(t *testing.T, node *Fabric, specs []server.TaskSpec) error {
			addr, _ := startWire(t, node)
			_, err := dialWire(t, addr).SubmitTasks(specs)
			return err
		}},
		{"router", func(t *testing.T, node *Fabric, specs []server.TaskSpec) error {
			addr, _ := startWire(t, node)
			rs := NewRemoteShard(addr, remoteOpts())
			defer rs.Close()
			_, err := NewRouter([]*RemoteShard{rs}, nil).CoreEnqueue(specs)
			return err
		}},
	}
	for _, leg := range legs {
		for _, b := range batches {
			t.Run(leg.name+"/"+b.name, func(t *testing.T) {
				node := New(server.Config{WorkerTimeout: time.Hour}, 2)
				err := leg.enqueue(t, node, b.specs)
				if err == nil {
					t.Fatal("mixed batch accepted, want an error")
				}
				if !strings.Contains(err.Error(), b.want.Error()) {
					t.Fatalf("error = %v, want %v", err, b.want)
				}
				if n := statusTasks(t, node); n != 0 {
					t.Fatalf("tasks = %d after a refused batch, want 0", n)
				}
			})
		}
	}
}
