package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

type metric struct {
	name  string
	unit  string
	value float64
	note  string // e.g. the percentile a tail metric really used
}

// report is one workload run's outcome.
type report struct {
	workload          string
	correct           bool
	attempted, failed int64
	degraded          int64 // barrier acks released by timeout
	metrics           []metric
	notes             []string
	missing           []string // metrics the run could not measure
}

func (r *report) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// addTail reports the q-quantile of samples under its fixed name. With
// fewer than minBeyond samples beyond q the metric is left out and named
// in missing, which fails the run.
func (r *report) addTail(name, unit string, samples []float64, q float64) {
	v, ok := tail(sortedCopy(samples), q)
	if !ok {
		r.missing = append(r.missing, fmt.Sprintf("%s (n=%d: fewer than %d samples beyond p%g)", name, len(samples), minBeyond, q*100))
		return
	}
	r.add(name, unit, v)
	r.metrics[len(r.metrics)-1].note = fmt.Sprintf("n=%d, p%g", len(samples), q*100)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// print writes the human-readable report, then the result object as the
// last line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: attempted=%d failed=%d degraded_acks=%d correct=%v\n",
		r.workload, r.attempted, r.failed, r.degraded, r.correct)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-36s %14.6g %-10s %s\n", m.name, m.value, m.unit, m.note)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value)}
	if r.correct {
		for _, m := range r.metrics {
			out.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", b)
}

// machine describes where the numbers were measured.
func machine(workdir string) string {
	return fmt.Sprintf("machine: cpu=%q nproc=%d GOMAXPROCS=%d go=%s kernel=%s workdir_fs=%s fsync=%s commit=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel(),
		fsType(workdir), fsyncPolicy, commit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(b))
}

// fsType names the filesystem holding dir (the persist directories).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// commit is the source revision the binary was built from, when the
// build saw version control.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func memAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
