package main

import (
	"math"
	"sort"
)

// hdQuantile is the Harrell–Davis estimate of the p-quantile of xs
// (0 < p < 1): a weighted mean of every order statistic, the i-th of n
// weighted by I_{i/n}(a, b) − I_{(i−1)/n}(a, b), with a = p(n+1) and
// b = (1−p)(n+1). The nearest-rank quantile of a few dozen samples
// follows the one or two samples at its rank, and so jumps between
// neighbouring cells; this estimate moves smoothly with all of them.
func hdQuantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var q, prev float64
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		q += (cur - prev) * x
		prev = cur
	}
	return q
}

// betaInc is the regularized incomplete beta function I_x(a, b), by its
// continued fraction (modified Lentz), on whichever side of the mean it
// converges fast.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	f := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		num := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		f *= d * c
		num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		f *= step
		if math.Abs(step-1) < 1e-14 {
			break
		}
	}
	return f
}
