package main

import (
	"time"
)

// The host is shared, and its speed drifts by tens of percent over a
// few minutes, which would swamp every bound on raw host time. So each
// untraced repetition also times a fixed kernel that belongs to the
// benchmark, not to the program: a branchy integer loop over a 16 KB
// table, like the cycle core's issue scan. The kernel slows with the
// simulator when the host does, and no change to the program can speed
// it up. A repetition's end-to-end times are scaled by
// refSampleS / (median kernel time), which gives them in seconds of the
// reference host.

// refSampleS is the kernel's median time on a quiet 2-core Intel Xeon
// (go1.24.0).
const refSampleS = 0.0150

// blockSamples is how many kernel runs a calibration point takes where
// it does not sit between cells.
const blockSamples = 8

type calibrator struct {
	on      bool
	samples []float64
}

// sample times one kernel run and returns how long it took (0 when off).
func (c *calibrator) sample() float64 {
	if !c.on {
		return 0
	}
	t0 := time.Now()
	calKernel()
	d := time.Since(t0).Seconds()
	c.samples = append(c.samples, d)
	return d
}

func (c *calibrator) block() {
	for i := 0; i < blockSamples; i++ {
		c.sample()
	}
}

// hostScale turns a repetition's raw host times into reference-host
// seconds; 1 when it took no samples.
func hostScale(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return refSampleS / median(samples)
}

var calSink uint64

func calKernel() {
	var tab [4096]uint32
	for i := range tab {
		tab[i] = uint32(i) * 2654435761
	}
	var acc uint64
	x := uint32(1)
	for i := 0; i < 1_300_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := tab[x&4095]
		switch {
		case v&1 == 0:
			acc += uint64(v >> 3)
		case v&2 == 0:
			acc ^= uint64(v)
		default:
			tab[(x>>12)&4095] = v + uint32(acc)
		}
	}
	calSink += acc
}
