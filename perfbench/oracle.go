package main

import (
	"errors"
	"fmt"
	"math/rand"

	"pgvn/internal/interp"
)

// maxSteps bounds each interpreter execution. The generator counts every
// loop with a constant trip count, so every unoptimized routine finishes
// far below it; hitting it is a failure, never a skip.
const maxSteps = 50_000_000

// inputsPerRoutine is the height of each routine's input matrix.
const inputsPerRoutine = 4

// inputMatrix returns the seeded argument vectors routine idx is run on:
// mostly small values, which steer branches both ways and divide by zero,
// with an occasional full-width value for the wraparound paths.
func inputMatrix(seed int64, idx, params int) [][]int64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)))
	out := make([][]int64, inputsPerRoutine)
	for k := range out {
		v := make([]int64, params)
		for j := range v {
			if rng.Intn(8) == 0 {
				v[j] = int64(rng.Uint64())
			} else {
				v[j] = rng.Int63n(41) - 20
			}
		}
		out[k] = v
	}
	return out
}

// claim is what the optimizer reported about a routine's return value.
type claim struct {
	isConst bool
	ret     int64
}

// verdict is the oracle's finding on one routine.
type verdict struct {
	// steps is the number of interpreter steps the optimized routine took
	// over the whole input matrix.
	steps int
	// returns holds the unoptimized routine's return on each input.
	returns []int64
	// failed is set when the routine could not be judged: the unoptimized
	// routine did not finish.
	failed error
	// convicted is set when an output is wrong.
	convicted error
}

// judge runs the unoptimized routine and the optimized one on every input
// and checks that their returns agree and that every constant claim
// holds. It relies on the interpreter alone, not on any part of the
// optimizer.
func judge(c *compiled, claims []claim, args [][]int64) verdict {
	var v verdict
	for _, a := range args {
		want, err := interp.Run(c.orig, a, maxSteps)
		if err != nil {
			if errors.Is(err, interp.ErrStepLimit) {
				err = fmt.Errorf("unoptimized routine exceeded %d steps on %v", maxSteps, a)
			}
			v.failed = fmt.Errorf("%s: %w", c.orig.Name, err)
			return v
		}
		v.returns = append(v.returns, want)
		tr, err := interp.RunTrace(c.opt, a, maxSteps)
		if err != nil {
			v.convicted = fmt.Errorf("%s: optimized routine on %v: %w", c.orig.Name, a, err)
			return v
		}
		v.steps += tr.Steps
		if tr.Return != want {
			v.convicted = fmt.Errorf("%s: on %v the optimized routine returns %d, the original %d",
				c.orig.Name, a, tr.Return, want)
			return v
		}
		for _, cl := range claims {
			if cl.isConst && cl.ret != want {
				v.convicted = fmt.Errorf("%s: claimed to always return %d, returns %d on %v",
					c.orig.Name, cl.ret, want, a)
				return v
			}
		}
	}
	return v
}
