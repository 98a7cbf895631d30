package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pgvn"
	"pgvn/internal/check"
	"pgvn/internal/ir"
	"pgvn/internal/workload"
)

// compileWorkload is a batch of routines, each submitted to pgvn's facade
// as its own source text, as a build would submit one file per routine.
type compileWorkload struct {
	opts     pgvn.Options
	routines func(seed int64) []*ir.Routine
}

// corpusWorkload is the default gvnopt path over the SPEC-CINT2000-shaped
// corpus: many small routines, where per-routine costs (parse, clone,
// SSA, render, verify, GC) outweigh the fixpoint. The corpus itself is
// fixed; the seed orders it and draws the interpreter's inputs.
var corpusWorkload = compileWorkload{
	opts: pgvn.Options{Jobs: 1},
	routines: func(seed int64) []*ir.Routine {
		var rs []*ir.Routine
		for _, b := range workload.Corpus(1.0) {
			rs = append(rs, b.Routines...)
		}
		return shuffled(seed, rs)
	},
}

// largeWorkload is a few routines of thousands of statements, with deep
// loops, the partial-redundancy mix and PRE on: the fixpoint, SSA and PRE
// grow superlinearly with routine size, so their changes show here. The
// routines are fixed, like the corpus: with costs this superlinear, a
// seed that reshaped them would move the figures more than run-to-run
// noise does. The seed orders them and draws the interpreter's inputs.
var largeWorkload = compileWorkload{
	opts: pgvn.Options{Jobs: 1, PRE: true},
	routines: func(seed int64) []*ir.Routine {
		rs := make([]*ir.Routine, 4)
		for k := range rs {
			rs[k] = workload.Generate(fmt.Sprintf("large_r%d", k), workload.GenConfig{
				Seed:              int64(880001 + k*104729),
				Stmts:             2000,
				Params:            3,
				MaxLoopDepth:      3,
				PartialRedundancy: true,
			})
		}
		return shuffled(seed, rs)
	},
}

// checkedWorkload runs the partial-redundancy family with PRE on under
// the full check tier, the only workload where internal/check runs. The
// family is fixed; the seed orders it and draws the interpreter's inputs.
var checkedWorkload = compileWorkload{
	opts: pgvn.Options{Jobs: 1, PRE: true, Check: "full"},
	routines: func(seed int64) []*ir.Routine {
		return shuffled(seed, workload.PartialRedundancy(12).Routines)
	},
}

func shuffled(seed int64, rs []*ir.Routine) []*ir.Routine {
	rand.New(rand.NewSource(seed)).Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs
}

// sources generates the workload's routines and renders each as source
// text: the set-up a run times.
func (w compileWorkload) sources(seed int64) []string {
	rs := w.routines(seed)
	srcs := make([]string, len(rs))
	for i, r := range rs {
		srcs[i] = workload.SourceText(r)
	}
	return srcs
}

func (w compileWorkload) run(seed int64, d time.Duration, traced bool, _ string) (*outcome, error) {
	level, err := check.ParseLevel(w.opts.Check)
	if err != nil {
		return nil, err
	}
	srcs, setup, err := timedSetup(3, func() ([]string, error) { return w.sources(seed), nil })
	if err != nil {
		return nil, err
	}
	b := &compileBench{
		srcs: srcs,
		seed: seed,
		optimize: func(src string) (string, []pgvn.Report, error) {
			return pgvn.OptimizeSource(src, w.opts)
		},
		pipe: pipeline{pre: w.opts.PRE, check: level},
	}
	o := b.measure(d, traced)
	o.set("setup_s", "s", seconds(setup))
	return o, nil
}

// compileBench measures one batch: each timed round submits every source
// to optimize once; a traced round replays the same batch stage by stage.
type compileBench struct {
	srcs     []string
	seed     int64
	optimize func(src string) (string, []pgvn.Report, error)
	pipe     pipeline
}

// facadeRound is one pass of every source through optimize.
type facadeRound struct {
	wall    time.Duration
	lat     []float64 // per-routine latency, ms
	rt      runtimeSample
	outs    []string
	reports [][]pgvn.Report
	errs    []error
}

func (b *compileBench) facadeRound() facadeRound {
	n := len(b.srcs)
	r := facadeRound{
		lat:     make([]float64, n),
		outs:    make([]string, n),
		reports: make([][]pgvn.Report, n),
		errs:    make([]error, n),
	}
	before := readRuntime()
	start := time.Now()
	for i, src := range b.srcs {
		t := time.Now()
		r.outs[i], r.reports[i], r.errs[i] = b.optimize(src)
		r.lat[i] = millis(time.Since(t))
	}
	r.wall = time.Since(start)
	r.rt = readRuntime().since(before)
	return r
}

// reference is what the oracle established about the batch: each
// routine's expected text, whether it failed the oracle and the
// unoptimized routine's return on each input.
type reference struct {
	texts   []string
	bad     []bool
	returns [][]int64
	instrs  struct{ in, out int }
	steps   int
}

// oracle replays the batch stage by stage and judges each routine under
// the interpreter, using the outputs and reports of a facade round.
func (b *compileBench) oracle(fr facadeRound, l *layers, o *outcome) reference {
	n := len(b.srcs)
	ref := reference{texts: make([]string, n), bad: make([]bool, n), returns: make([][]int64, n)}
	for i, src := range b.srcs {
		c, err := b.pipe.run(src, l)
		if err != nil || fr.errs[i] != nil {
			ref.bad[i] = true
			// Both paths run the same stages: an error on one alone means
			// they disagree about the routine.
			o.failf((err == nil) != (fr.errs[i] == nil),
				"failed: routine %d: facade error %v, replay error %v", i, fr.errs[i], err)
			continue
		}
		ref.texts[i] = c.text
		ref.instrs.out += c.instrs
		for _, bl := range c.orig.Blocks {
			ref.instrs.in += len(bl.Instrs)
		}
		if fr.outs[i] != c.text {
			ref.bad[i] = true
			o.failf(true, "convicted: %s: facade text differs from the stage-by-stage replay", c.orig.Name)
			continue
		}
		claims := make([]claim, len(fr.reports[i]))
		for k, rep := range fr.reports[i] {
			claims[k] = claim{isConst: rep.Const, ret: rep.AlwaysReturns}
		}
		v := judge(c, claims, inputMatrix(b.seed, i, len(c.orig.Params)))
		ref.steps += v.steps
		ref.returns[i] = v.returns
		switch {
		case v.failed != nil:
			ref.bad[i] = true
			o.failf(false, "failed: %v", v.failed)
		case v.convicted != nil:
			ref.bad[i] = true
			o.failf(true, "convicted: %v", v.convicted)
		}
	}
	return ref
}

// failures counts the routines of a round that failed: those the oracle
// rejected, and those whose output differs from the checked text.
func (ref reference) failures(fr facadeRound, o *outcome) int {
	bad := 0
	for i := range fr.outs {
		switch {
		case ref.bad[i] || fr.errs[i] != nil:
			bad++
		case fr.outs[i] != ref.texts[i]:
			bad++
			o.failf(true, "convicted: routine %d: facade text changed between rounds", i)
		}
	}
	return bad
}

// measure runs a warm-up round whose outputs feed the oracle, then timed
// rounds for at least d. A traced run follows each timed round with a
// stage-by-stage replay of the same batch.
func (b *compileBench) measure(d time.Duration, traced bool) *outcome {
	o := &outcome{}
	n := len(b.srcs)
	warm := b.facadeRound()
	var first layers
	ref := b.oracle(warm, &first, o)
	replays := []layers{first}
	o.account(n, ref.failures(warm, o))
	// Drop the warm-up round and the oracle's routines, so the timed
	// rounds start from the same small heap.
	warm = facadeRound{}
	runtime.GC()

	var cpus, walls, allocs, gcCPU, gcs, p50s, p99s []float64
	var total time.Duration
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		fr := b.facadeRound()
		o.account(n, ref.failures(fr, o))
		cpus = append(cpus, seconds(fr.rt.cpu))
		walls = append(walls, seconds(fr.wall))
		allocs = append(allocs, megabytes(fr.rt.alloc))
		gcCPU = append(gcCPU, fr.rt.gcCPU)
		gcs = append(gcs, float64(fr.rt.gcs))
		p50s = append(p50s, quantile(fr.lat, 0.50))
		p99s = append(p99s, quantile(fr.lat, 0.99))
		total += fr.wall
		if traced {
			var l layers
			for _, src := range b.srcs {
				_, _ = b.pipe.run(src, &l) // judged above; only the times matter here
			}
			replays = append(replays, l)
		}
	}
	wall := median(walls)
	o.set("compile_s", "s", median(cpus))
	o.set("alloc_mb", "MB", median(allocs))
	o.set("out_instrs", "count", float64(ref.instrs.out))
	o.set("exec_steps", "count", float64(ref.steps))
	if traced {
		l := medianLayers(replays)
		l.report(o)
		o.set("compile_wall_s", "s", wall)
		o.set("serve_rps", "req/s", float64(n*len(walls))/total.Seconds())
		o.set("req_p50_ms", "ms", median(p50s))
		o.set("req_p99_ms", "ms", median(p99s))
		o.set("driver.layer_coverage", "ratio", seconds(l.covered())/wall)
		o.set("runtime.gc_cpu_s", "s", median(gcCPU))
		o.set("runtime.gc_cycles", "count", median(gcs))
		// Nothing is cached on the compile path: every routine is computed.
		o.set("miss_p50_ms", "ms", median(p50s))
		o.set("miss_p99_ms", "ms", median(p99s))
	}
	o.notef("routines %d, input instrs %d, output instrs %d, interpreter steps %d, timed rounds %d",
		n, ref.instrs.in, ref.instrs.out, ref.steps, len(walls))
	return o
}
