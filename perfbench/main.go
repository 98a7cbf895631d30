// Command perfbench is pgvn's end-to-end benchmark. It measures a
// routine's whole trip through the optimizer (parse → clone → SSA →
// fixpoint → opt/PRE → render) on three compile workloads, and a gvnd
// request's whole trip (admission → store → compute → encode → store
// write) on the serve workload, and checks every output against the
// reference interpreter.
//
//	go run . --workload corpus --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// every instrumentation hook off, its times in CPU seconds; with --trace 1
// it reports the per-layer metrics from a separate pass that times calls
// into each layer from outside the program. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Inputs come from internal/workload and depend only on --seed. All load
// comes from this one process, with at most two concurrent clients.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run reports: the operation accounting and the
// metrics of the requested kind.
type outcome struct {
	// Attempted counts operations: one routine submitted to the facade
	// on the compile workloads, one request on serve.
	Attempted int
	// Failed counts operations that errored or whose output the oracle
	// convicted.
	Failed int
	// Convicted reports whether any output was wrong, as opposed to an
	// operation that returned an error.
	Convicted bool
	// Metrics holds the measured figures by name.
	Metrics map[string]metric
	// Notes are human-readable lines printed before the JSON result.
	Notes []string

	failureNotes int
}

func (o *outcome) set(name, unit string, v float64) {
	if o.Metrics == nil {
		o.Metrics = make(map[string]metric)
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) notef(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// maxFailureNotes caps how many failures a run spells out; the count of
// all of them is in the result.
const maxFailureNotes = 5

// failf notes one failed operation, convicted when its output was wrong
// rather than an error.
func (o *outcome) failf(convicted bool, format string, args ...any) {
	if convicted {
		o.Convicted = true
	}
	if o.failureNotes < maxFailureNotes {
		o.failureNotes++
		o.notef(format, args...)
	}
}

// account records one round's operations: n attempted, bad of them failed.
func (o *outcome) account(n, bad int) {
	o.Attempted += n
	o.Failed += bad
}

// endToEnd and perLayer name every metric a run prints, with its unit;
// BENCHMARK.json lists the same names (TestMetricListsMatchManifest).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"compile_s", "s"},
	{"alloc_mb", "MB"},
	{"out_instrs", "count"},
	{"exec_steps", "count"},
}

var perLayer = []struct{ name, unit string }{
	{"parser.parse_s", "s"},
	{"ir.clone_s", "s"},
	{"ir.verify_s", "s"},
	{"ir.render_s", "s"},
	{"ssa.build_s", "s"},
	{"ssa.phis", "count"},
	{"core.run_s", "s"},
	{"core.passes", "count"},
	{"core.touches", "count"},
	{"core.instr_evals", "count"},
	{"opt.apply_s", "s"},
	{"opt.instrs_removed", "count"},
	{"opt.redundancies_replaced", "count"},
	{"opt.pre.insertions", "count"},
	{"opt.pre.removed", "count"},
	{"check.structural_s", "s"},
	{"check.analyze_s", "s"},
	{"check.postopt_s", "s"},
	{"driver.layer_coverage", "ratio"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"compile_wall_s", "s"},
	{"serve_rps", "req/s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_p99_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"server.admission_ms", "ms"},
	{"server.store_lookup_ms", "ms"},
	{"server.compute_ms", "ms"},
	{"server.miss_unattributed_ms", "ms"},
	{"server.hit_unattributed_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.bytes_per_entry", "B"},
	{"hot.hit_ratio", "ratio"},
	{"hot.get_us", "us"},
	{"obs.span_overhead", "ratio"},
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(seed int64, seconds time.Duration, traced bool, scratch string) (*outcome, error){
	"corpus":  corpusWorkload.run,
	"large":   largeWorkload.run,
	"checked": checkedWorkload.run,
	"serve":   serveWorkload.run,
}

func main() {
	name := flag.String("workload", "", "workload to run: corpus, large, checked or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload corpus|large|checked|serve --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	// The serve workload's stores live in the build directory, so the run
	// writes nothing outside the checkout it was started from.
	out, err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1, ".bench_build")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := out.result(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range out.Notes {
		fmt.Println(n)
	}
	fmt.Println(string(line))
}

// result renders the JSON line of the requested kind. Every end-to-end
// metric must have been measured; a per-layer metric of a layer the
// workload never enters reads 0.
func (o *outcome) result(traced bool) ([]byte, error) {
	want, missingOK := endToEnd, false
	if traced {
		want, missingOK = perLayer, true
	}
	metrics := make(map[string]metric, len(want))
	var missing []string
	for _, m := range want {
		v, ok := o.Metrics[m.name]
		switch {
		case ok:
			metrics[m.name] = v
		case missingOK:
			metrics[m.name] = metric{Value: 0, Unit: m.unit}
		default:
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{!o.Convicted, o.Attempted, o.Failed, metrics})
}
