package main

import (
	"fmt"
	"time"

	"pgvn/internal/check"
	"pgvn/internal/core"
	"pgvn/internal/ir"
	"pgvn/internal/opt"
	"pgvn/internal/parser"
	"pgvn/internal/ssa"
)

// pipeline replays, stage by stage, what pgvn.OptimizeSource runs for one
// routine on its driver path, so each layer's share of a routine's trip
// can be timed from outside the program. The configuration is the
// facade's: the default core configuration and semi-pruned SSA.
type pipeline struct {
	pre   bool
	check check.Level
	// fault, when set, corrupts each analysis result the way
	// driver.Config.Fault does; only the oracle's self-test sets it.
	fault core.Fault
}

// layers accumulates the time spent in each layer over a batch and the
// work counters the layers report.
type layers struct {
	parse, clone, verify, ssa, core, opt, render time.Duration
	structural, analyze, postOpt                 time.Duration

	phis, passes, touches, instrEvals                      int
	instrsRemoved, redundancies, preInsertions, preRemoved int
}

// covered is the time charged to a layer the facade path runs. verify is
// left out: the three verifications it times are repeats, outside the
// pipeline, of the ones ssa.Build and opt.ApplyWith already make, so
// their cost is inside ssa and opt.
func (l *layers) covered() time.Duration {
	return l.parse + l.clone + l.ssa + l.core + l.opt + l.render +
		l.structural + l.analyze + l.postOpt
}

// compiled is one routine's replay: the routine as parsed (pre-SSA,
// never mutated), the optimized routine, its text and the analysis's
// constant-return claim.
type compiled struct {
	orig, opt *ir.Routine
	text      string
	instrs    int
	isConst   bool
	ret       int64
}

// run replays the pipeline on one routine's source, adding each stage's
// time and counters to l.
func (p pipeline) run(src string, l *layers) (*compiled, error) {
	t := time.Now()
	rs, err := parser.Parse(src)
	l.parse += time.Since(t)
	if err != nil {
		return nil, err
	}
	if len(rs) != 1 {
		return nil, fmt.Errorf("source holds %d routines, want 1", len(rs))
	}
	orig := rs[0]
	t = time.Now()
	work := orig.Clone()
	l.clone += time.Since(t)
	if err := p.structural(work, "parse", l); err != nil {
		return nil, err
	}
	if err := l.timeVerify(work); err != nil { // ssa.Build's entry check
		return nil, err
	}
	t = time.Now()
	err = ssa.Build(work, ssa.SemiPruned)
	l.ssa += time.Since(t)
	if err != nil {
		return nil, err
	}
	if err := l.timeVerify(work); err != nil { // ssa.Build's exit check
		return nil, err
	}
	for _, b := range work.Blocks {
		l.phis += len(b.Phis())
	}
	if err := p.structural(work, "ssa", l); err != nil {
		return nil, err
	}
	t = time.Now()
	res, err := core.Run(work, core.DefaultConfig())
	l.core += time.Since(t)
	if err != nil {
		return nil, err
	}
	l.passes += res.Stats.Passes
	l.touches += res.Stats.Touches
	l.instrEvals += res.Stats.InstrEvals
	if p.fault != core.FaultNone && p.fault.Stage() == "gvn" {
		if err := res.Inject(p.fault); err != nil {
			return nil, fmt.Errorf("fault injection: %w", err)
		}
	}
	if err := p.structural(work, "gvn", l); err != nil {
		return nil, err
	}
	if p.check != check.Off {
		t = time.Now()
		e := check.Analyze(res, p.check)
		l.analyze += time.Since(t)
		if e != nil {
			return nil, e
		}
	}
	c := &compiled{orig: orig, opt: work}
	// ReturnConst reads the live routine: take it before opt rewrites it.
	c.ret, c.isConst = res.ReturnConst()
	o := opt.Options{PRE: p.pre}
	if p.pre && p.check != check.Off {
		o.Verify = func(pass string) error {
			if e := check.PassSandwich(work, pass); e != nil {
				return e
			}
			return nil
		}
	}
	t = time.Now()
	st, err := opt.ApplyWith(res, o)
	l.opt += time.Since(t)
	if err != nil {
		return nil, err
	}
	if p.fault != core.FaultNone && p.fault.Stage() == "opt" {
		if err := res.Inject(p.fault); err != nil {
			return nil, fmt.Errorf("fault injection: %w", err)
		}
	}
	if err := l.timeVerify(work); err != nil { // opt.ApplyWith's exit check
		return nil, err
	}
	l.instrsRemoved += st.InstrsRemoved
	l.redundancies += st.RedundanciesReplaced
	l.preInsertions += st.PRE.Insertions
	l.preRemoved += st.PRE.Removals
	if p.check != check.Off {
		t = time.Now()
		e := check.PostOpt(orig, work, p.check)
		l.postOpt += time.Since(t)
		if e != nil {
			return nil, e
		}
	}
	t = time.Now()
	c.text = work.String()
	l.render += time.Since(t)
	for _, b := range work.Blocks {
		c.instrs += len(b.Instrs)
	}
	return c, nil
}

// structural runs the check tier's structural verification after a
// stage, as the driver does when checking is on.
func (p pipeline) structural(r *ir.Routine, stage string, l *layers) error {
	if p.check == check.Off {
		return nil
	}
	t := time.Now()
	e := check.Structural(r, stage)
	l.structural += time.Since(t)
	if e != nil {
		return e
	}
	return nil
}

func (l *layers) timeVerify(r *ir.Routine) error {
	t := time.Now()
	err := r.Verify()
	l.verify += time.Since(t)
	return err
}

// report sets the per-layer metrics of one replayed batch.
func (l *layers) report(o *outcome) {
	o.set("parser.parse_s", "s", seconds(l.parse))
	o.set("ir.clone_s", "s", seconds(l.clone))
	o.set("ir.verify_s", "s", seconds(l.verify))
	o.set("ir.render_s", "s", seconds(l.render))
	o.set("ssa.build_s", "s", seconds(l.ssa))
	o.set("ssa.phis", "count", float64(l.phis))
	o.set("core.run_s", "s", seconds(l.core))
	o.set("core.passes", "count", float64(l.passes))
	o.set("core.touches", "count", float64(l.touches))
	o.set("core.instr_evals", "count", float64(l.instrEvals))
	o.set("opt.apply_s", "s", seconds(l.opt))
	o.set("opt.instrs_removed", "count", float64(l.instrsRemoved))
	o.set("opt.redundancies_replaced", "count", float64(l.redundancies))
	o.set("opt.pre.insertions", "count", float64(l.preInsertions))
	o.set("opt.pre.removed", "count", float64(l.preRemoved))
	o.set("check.structural_s", "s", seconds(l.structural))
	o.set("check.analyze_s", "s", seconds(l.analyze))
	o.set("check.postopt_s", "s", seconds(l.postOpt))
}

// medianLayers returns, field by field, the median of several replays of
// the same batch. The counters are identical in every replay.
func medianLayers(ls []layers) layers {
	pick := func(f func(*layers) time.Duration) time.Duration {
		xs := make([]float64, len(ls))
		for k := range ls {
			xs[k] = float64(f(&ls[k]))
		}
		return time.Duration(median(xs))
	}
	m := ls[0]
	m.parse = pick(func(l *layers) time.Duration { return l.parse })
	m.clone = pick(func(l *layers) time.Duration { return l.clone })
	m.verify = pick(func(l *layers) time.Duration { return l.verify })
	m.ssa = pick(func(l *layers) time.Duration { return l.ssa })
	m.core = pick(func(l *layers) time.Duration { return l.core })
	m.opt = pick(func(l *layers) time.Duration { return l.opt })
	m.render = pick(func(l *layers) time.Duration { return l.render })
	m.structural = pick(func(l *layers) time.Duration { return l.structural })
	m.analyze = pick(func(l *layers) time.Duration { return l.analyze })
	m.postOpt = pick(func(l *layers) time.Duration { return l.postOpt })
	return m
}
