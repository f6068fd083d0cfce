// Command erbench is the resolver's benchmark. It runs one workload in a
// single process against the program's public entry points — the batch
// pipeline (pipeline.New/Run) and the durable HTTP service
// (service.Server.Handler over a persist data directory) — checks every
// output, and prints its metrics, one per line, followed by one JSON
// object on the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// attempted counts the operations the run started (dataset resolves,
// commits, reader requests). A run stops at its first failed check, so
// failed is 0, or 1 with correct false and attempted the operations
// started up to and including the failing one.
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// same workload runs with span recording and persistence probes on, and
// the metrics are the per-layer ones. Usage (from the repository root):
//
//	bash erbench/run.sh --workload cold_batch --seed 1 --seconds 40 --trace 0
//
// Workloads: cold_batch, serve_mixed. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives: its seed, run length, whether the
// run is traced, and a work directory of its own inside the checkout.
type env struct {
	seed    int64
	seconds float64
	rec     *recorder // nil unless traced
	work    string
	// ops counts the operations started; every client adds one before
	// each operation, so a failing one is counted too.
	ops atomic.Int64
}

// outcome is what a workload hands back: the end-to-end metrics and
// (traced runs) the per-layer metrics.
type outcome struct {
	e2e    map[string]metric
	layers map[string]metric
}

// corpusSeed generates every workload's pages: the profiles are fixed,
// as the paper's datasets are, so quality and cost are comparable across
// runs. The workload seed varies what is done with them (see each
// workload).
const corpusSeed = 1

// checkError marks a failed correctness check: the run printed wrong
// results, as opposed to not being able to run at all.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

var workloads = map[string]func(*env) (*outcome, error){
	"cold_batch":  runColdBatch,
	"serve_mixed": runServeMixed,
}

func main() {
	var (
		workload = flag.String("workload", "", "cold_batch | serve_mixed")
		seed     = flag.Int64("seed", 1, "workload seed: the training draw (cold_batch) or the document order (serve_mixed)")
		seconds  = flag.Float64("seconds", 40, "measured run length: whole rounds run until it has passed")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		work     = flag.String("work", filepath.Join(".bench_build", "erbench"), "work directory for data directories and span files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "erbench: need -workload cold_batch|serve_mixed, -trace 0|1 and -seconds > 0\n")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(*work), *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "erbench:", err)
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: *seconds, work: dir}
	if *trace == 1 {
		e.rec = newRecorder()
	}
	out, err := run(e)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "erbench: removing the work directory:", rmErr)
	}
	var ce *checkError
	if errors.As(err, &ce) {
		fmt.Fprintln(os.Stderr, "erbench:", err)
		printReport(report{Correct: false, Attempted: max(e.ops.Load(), 1), Failed: 1, Metrics: map[string]metric{}})
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "erbench:", err)
		os.Exit(2)
	}
	metrics := out.e2e
	if e.rec != nil {
		metrics = out.layers
		path := filepath.Join(mustMkdir(*work), fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := e.rec.writeJSON(path); err != nil {
			fmt.Fprintln(os.Stderr, "erbench: writing spans:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "erbench: %d spans written to %s\n", e.rec.len(), path)
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "erbench: metric %s is %v\n", name, m.Value)
			os.Exit(2)
		}
	}
	printReport(report{Correct: true, Attempted: e.ops.Load(), Failed: 0, Metrics: metrics})
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "erbench:", err)
		os.Exit(2)
	}
	return dir
}

// printReport prints one human-readable line per metric, then the JSON
// result as the last line.
func printReport(r report) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("%-36s %14d\n%-36s %14d\n", "attempted", r.Attempted, "failed", r.Failed)
	body, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "erbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(body))
}

// heapMB forces a collection and reports the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// memCounters reads the allocation and GC counters the runtime metrics
// are deltas of.
func memCounters() (mallocs uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.NumGC
}

// since is a duration in seconds since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
