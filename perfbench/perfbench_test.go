package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"pgvn"
	"pgvn/internal/core"
	"pgvn/internal/driver"
	"pgvn/internal/ir"
	"pgvn/internal/parser"
)

// tinyCompile keeps the first n routines of a compile workload.
func tinyCompile(w compileWorkload, n int) compileWorkload {
	return compileWorkload{
		opts:     w.opts,
		routines: func(seed int64) []*ir.Routine { return w.routines(seed)[:n] },
	}
}

var tinyServe = serveShape{distinct: 24, requests: 72, zipf: 1.1, hotBytes: 8 << 10, clients: 2}

// TestCleanRunsPass runs each workload at a tiny size, in both modes, and
// expects every operation to pass the oracle and every metric of the
// mode to be reported.
func TestCleanRunsPass(t *testing.T) {
	runs := map[string]func(traced bool) (*outcome, error){
		"corpus": func(traced bool) (*outcome, error) {
			return tinyCompile(corpusWorkload, 16).run(3, time.Nanosecond, traced, "")
		},
		"large": func(traced bool) (*outcome, error) {
			return tinyCompile(largeWorkload, 1).run(3, time.Nanosecond, traced, "")
		},
		"checked": func(traced bool) (*outcome, error) {
			return tinyCompile(checkedWorkload, 16).run(3, time.Nanosecond, traced, "")
		},
		"serve": func(traced bool) (*outcome, error) {
			return tinyServe.run(3, time.Nanosecond, traced, t.TempDir())
		},
	}
	for name, run := range runs {
		for _, traced := range []bool{false, true} {
			o, err := run(traced)
			if err != nil {
				t.Fatalf("%s (traced %t): %v", name, traced, err)
			}
			if o.Attempted == 0 || o.Failed != 0 || o.Convicted {
				t.Errorf("%s (traced %t): %d of %d failed, convicted %t: %v",
					name, traced, o.Failed, o.Attempted, o.Convicted, o.Notes)
			}
			if _, err := o.result(traced); err != nil {
				t.Errorf("%s (traced %t): %v", name, traced, err)
			}
		}
	}
}

// TestWrongConstConvicted injects the wrong-constant fault through the
// batch driver with checking off: only the benchmark's oracle stands
// between the fault and a passing run.
func TestWrongConstConvicted(t *testing.T) {
	d := driver.New(driver.Config{Core: core.DefaultConfig(), Jobs: 1, Fault: core.FaultWrongConst})
	b := &compileBench{
		srcs: corpusWorkload.sources(1)[:60],
		seed: 1,
		optimize: func(src string) (string, []pgvn.Report, error) {
			rs, err := parser.Parse(src)
			if err != nil {
				return "", nil, err
			}
			batch := d.Run(context.Background(), rs)
			if err := batch.Err(); err != nil {
				return "", nil, err
			}
			var reps []pgvn.Report
			for _, rr := range batch.Results {
				reps = append(reps, pgvn.Report{Routine: rr.Name, Const: rr.Report.Const, AlwaysReturns: rr.Report.AlwaysReturns})
			}
			return batch.Text(), reps, nil
		},
		pipe: pipeline{fault: core.FaultWrongConst},
	}
	o := b.measure(time.Nanosecond, false)
	if o.Failed == 0 || !o.Convicted {
		t.Fatalf("fault not convicted: %d of %d failed, convicted %t", o.Failed, o.Attempted, o.Convicted)
	}
	byInterp := false
	for _, n := range o.Notes {
		byInterp = byInterp || strings.Contains(n, "the optimized routine returns") ||
			strings.Contains(n, "claimed to always return")
	}
	if !byInterp {
		t.Errorf("no conviction came from the interpreter: %v", o.Notes)
	}
}

// TestPerturbedServeExpectationConvicted changes the text the oracle
// expects for one source: every request for it must then fail.
func TestPerturbedServeExpectationConvicted(t *testing.T) {
	sb, err := tinyServe.inputs(5)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	var l layers
	sb.oracle(&l, o)
	if o.Failed != 0 || o.Convicted {
		t.Fatalf("clean sources rejected: %v", o.Notes)
	}
	sb.ref.texts[0] += "\n"
	rr, err := sb.round(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if bad := sb.failures(rr, o); bad == 0 || !o.Convicted {
		t.Fatalf("perturbed expectation not convicted: %d failed, notes %v", bad, o.Notes)
	}
}

// TestMetricListsMatchManifest keeps the metrics a run prints and the
// ones BENCHMARK.json declares the same.
func TestMetricListsMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for k := range want {
			if got[k].Name != want[k].name || got[k].Unit != want[k].unit {
				t.Errorf("%s %d: manifest %s (%s), benchmark %s (%s)",
					kind, k, got[k].Name, got[k].Unit, want[k].name, want[k].unit)
			}
		}
	}
	compare("end_to_end", manifest.EndToEnd, endToEnd)
	compare("per_layer", manifest.PerLayer, perLayer)
}
