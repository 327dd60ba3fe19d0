package main

import (
	"math/big"
	"time"
)

// Host-speed compensation.
//
// The reference host is a 2-vCPU virtual machine whose cores run at one
// of two speeds, about 1.55× apart, for tens of seconds at a time —
// without the guest being descheduled (steal stays at zero), so neither
// wall clock nor CPU time of a run repeats: the same binary on the same
// seed gives a median latency of 108 ms in one run and 177 ms in the
// next. No statistic of one run's latencies survives that; whole runs sit
// in the slow mode.
//
// So the benchmark carries its own speedometer: a fixed piece of integer
// work (the kernel below — the modular exponentiation Paillier spends
// its time in, on constant operands, from the standard library, so no
// change to the program under test can move it) timed right after every
// timed operation, on the goroutine that ran the operation. A timing is
// then scaled by nominalKernel ÷ (the kernel's time around that moment):
// it is reported as it would have read had the host run at its nominal
// speed. On a quiet host the factor is 1 and nothing changes. Measured on
// this host over eight runs each of secure_scan and basic_tcp, the
// quartile spread of the median latency goes from 0.56 and 0.39 raw to
// 0.02 and 0.03 compensated.
//
// Every run prints the factor it applied and the raw median next to the
// compensated one.

// nominalKernel is what the kernel takes on the reference host at full
// speed. It only fixes the unit: parent and change are scaled by the same
// constant, so no comparison depends on it.
const nominalKernel = 1550 * time.Microsecond

var (
	kernelBase = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 1000), big.NewInt(12345))
	kernelMod  = new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 1024), big.NewInt(643))
)

// kernel runs the fixed work once and returns how long it took.
func kernel() time.Duration {
	start := time.Now()
	for i := 0; i < 3; i++ {
		new(big.Int).Exp(kernelBase, kernelBase, kernelMod)
	}
	return time.Since(start)
}

// kernelWindow is how many kernel readings either side of an operation
// are pooled into its speed. In its slow mode the host hops between full,
// two-thirds and half speed faster than a query lasts, so what a query
// experiences is the time average of those levels: the readings are
// pooled by their mean (pooling by median left a quartile spread of 0.04
// on query_p50_ms, the mean 0.02), over a window long enough to average
// the hopping and short enough to follow the host when it changes mode
// in the middle of a run.
const kernelWindow = 5

// speedAt is the host's slowness around operation i: the mean kernel
// time of the readings near it ÷ nominalKernel. 1 = nominal, 1.5 = the
// host was running at two thirds of its speed.
func speedAt(kernelMs []float64, i int) float64 {
	if len(kernelMs) == 0 {
		return 1
	}
	lo, hi := i-kernelWindow, i+kernelWindow+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(kernelMs) {
		hi = len(kernelMs)
	}
	return mean(kernelMs[lo:hi]) / ms(nominalKernel)
}

// compensate scales each timing to nominal host speed using the kernel
// reading taken after it (and its neighbours).
func compensate(timings, kernelMs []float64) []float64 {
	out := make([]float64, len(timings))
	for i, t := range timings {
		out[i] = t / speedAt(kernelMs, i)
	}
	return out
}

// hostSpeed is the overall slowness over all the readings.
func hostSpeed(kernelMs []float64) float64 {
	if len(kernelMs) == 0 {
		return 1
	}
	return mean(kernelMs) / ms(nominalKernel)
}
