// Package stats provides the statistical utilities used throughout the
// reproduction: empirical CDFs, quantiles, histograms, calibrated samplers
// (lognormal, Zipf-like power laws), and plain-text table/series rendering
// for the benchmark harness that regenerates the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function over float64 samples.
// The zero value is empty; Add samples and then query. All query methods
// sort lazily and are safe to call repeatedly.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF returns a CDF primed with the given samples.
func NewCDF(samples ...float64) *CDF {
	c := &CDF{}
	c.AddAll(samples)
	return c
}

// Add appends one sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// AddAll appends many samples.
func (c *CDF) AddAll(xs []float64) {
	c.samples = append(c.samples, xs...)
	c.sorted = false
}

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It panics on an empty CDF.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		panic("stats: Quantile on empty CDF")
	}
	c.ensureSorted()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	pos := q * float64(len(c.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.samples[lo]
	}
	frac := pos - float64(lo)
	return c.samples[lo]*(1-frac) + c.samples[hi]*frac
}

// FractionAtMost returns the fraction of samples <= x.
func (c *CDF) FractionAtMost(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	idx := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.samples))
}

// Mean returns the arithmetic mean of the samples (0 for empty).
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range c.samples {
		sum += x
	}
	return sum / float64(len(c.samples))
}

// Min returns the smallest sample. It panics on an empty CDF.
func (c *CDF) Min() float64 {
	if len(c.samples) == 0 {
		panic("stats: Min on empty CDF")
	}
	c.ensureSorted()
	return c.samples[0]
}

// Max returns the largest sample. It panics on an empty CDF.
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		panic("stats: Max on empty CDF")
	}
	c.ensureSorted()
	return c.samples[len(c.samples)-1]
}

// Histogram is a counter over integer-valued observations, used for the
// paper's frequency tables (Tables 1-3).
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Observe records one observation of value v.
func (h *Histogram) Observe(v int) {
	h.counts[v]++
	h.total++
}

// Total reports the number of observations.
func (h *Histogram) Total() int { return h.total }

// FractionExactly reports the fraction of observations with exactly value v.
func (h *Histogram) FractionExactly(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// FractionInRange reports the fraction of observations in [lo, hi].
func (h *Histogram) FractionInRange(lo, hi int) float64 {
	if h.total == 0 {
		return 0
	}
	n := 0
	for v, c := range h.counts {
		if v >= lo && v <= hi {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

// TopShare returns the share of total "mass" (sum of values) contributed by
// the top-frac fraction of observations when ranked by value. This is the
// statistic behind the paper's "top 1% of raw configs account for 92.8% of
// updates" claim.
func (h *Histogram) TopShare(frac float64) float64 {
	if h.total == 0 {
		return 0
	}
	vals := make([]int, 0, h.total)
	for v, c := range h.counts {
		for i := 0; i < c; i++ {
			vals = append(vals, v)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(vals)))
	sum := 0
	for _, v := range vals {
		sum += v
	}
	if sum == 0 {
		return 0
	}
	k := int(math.Ceil(frac * float64(len(vals))))
	if k < 1 {
		k = 1
	}
	top := 0
	for _, v := range vals[:k] {
		top += v
	}
	return float64(top) / float64(sum)
}

// Lognormal is a lognormal distribution sampler parameterised by the
// underlying normal's mu and sigma.
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// LognormalFromQuantiles fits a lognormal through two quantile constraints:
// P(X <= x1) = p1 and P(X <= x2) = p2. The paper reports config sizes by
// their P50 and P95, which pins down the two lognormal parameters exactly.
func LognormalFromQuantiles(p1, x1, p2, x2 float64) Lognormal {
	z1 := NormQuantile(p1)
	z2 := NormQuantile(p2)
	sigma := (math.Log(x2) - math.Log(x1)) / (z2 - z1)
	mu := math.Log(x1) - sigma*z1
	return Lognormal{Mu: mu, Sigma: sigma}
}

// Sample draws one value using the supplied standard normal variate z.
func (l Lognormal) Sample(z float64) float64 {
	return math.Exp(l.Mu + l.Sigma*z)
}

// Quantile returns the q-th quantile of the lognormal.
func (l Lognormal) Quantile(q float64) float64 {
	return math.Exp(l.Mu + l.Sigma*NormQuantile(q))
}

// NormQuantile returns the standard normal quantile function (probit) using
// Acklam's rational approximation; absolute error is below 1.15e-9, far more
// than enough for workload calibration.
func NormQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: NormQuantile p=%v out of (0,1)", p))
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
