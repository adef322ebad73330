package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFQuantileAndFraction(t *testing.T) {
	c := NewCDF()
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %v, want 100", got)
	}
	if got := c.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Quantile(0.5) = %v, want 50.5", got)
	}
	if got := c.FractionAtMost(50); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("FractionAtMost(50) = %v, want 0.5", got)
	}
	if got := c.FractionAtMost(0); got != 0 {
		t.Errorf("FractionAtMost(0) = %v, want 0", got)
	}
	if got := c.FractionAtMost(1000); got != 1 {
		t.Errorf("FractionAtMost(1000) = %v, want 1", got)
	}
}

func TestCDFEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty CDF Quantile")
		}
	}()
	(&CDF{}).Quantile(0.5)
}

func TestCDFMinMaxMean(t *testing.T) {
	c := NewCDF(3, 1, 2)
	if c.Min() != 1 || c.Max() != 3 {
		t.Errorf("Min/Max = %v/%v, want 1/3", c.Min(), c.Max())
	}
	if got := c.Mean(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestQuantileMonotonic(t *testing.T) {
	rng := NewRNG(7)
	c := NewCDF()
	for i := 0; i < 1000; i++ {
		c.Add(rng.Float64() * 100)
	}
	err := quick.Check(func(a, b float64) bool {
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return c.Quantile(qa) <= c.Quantile(qb)+1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestFractionAtMostMonotonic(t *testing.T) {
	rng := NewRNG(11)
	c := NewCDF()
	for i := 0; i < 500; i++ {
		c.Add(rng.Norm())
	}
	err := quick.Check(func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return c.FractionAtMost(a) <= c.FractionAtMost(b)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Observe(1)
	}
	for i := 0; i < 5; i++ {
		h.Observe(3)
	}
	h.Observe(100)
	if h.Total() != 16 {
		t.Fatalf("Total = %d, want 16", h.Total())
	}
	if got := h.FractionExactly(1); math.Abs(got-10.0/16) > 1e-12 {
		t.Errorf("FractionExactly(1) = %v", got)
	}
	if got := h.FractionInRange(1, 3); math.Abs(got-15.0/16) > 1e-12 {
		t.Errorf("FractionInRange(1,3) = %v", got)
	}
}

func TestHistogramTopShare(t *testing.T) {
	h := NewHistogram()
	// 99 configs with 1 update, 1 config with 901 updates: top 1% holds 90.1%.
	for i := 0; i < 99; i++ {
		h.Observe(1)
	}
	h.Observe(901)
	got := h.TopShare(0.01)
	if math.Abs(got-0.901) > 1e-9 {
		t.Errorf("TopShare(0.01) = %v, want 0.901", got)
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999} {
		z := NormQuantile(p)
		back := 0.5 * (1 + math.Erf(z/math.Sqrt2)) // the standard normal CDF
		if math.Abs(back-p) > 1e-6 {
			t.Errorf("CDF(NormQuantile(%v)) = %v", p, back)
		}
	}
	if NormQuantile(0.5) != 0 && math.Abs(NormQuantile(0.5)) > 1e-9 {
		t.Errorf("NormQuantile(0.5) = %v, want 0", NormQuantile(0.5))
	}
}

func TestLognormalFromQuantiles(t *testing.T) {
	// The paper's raw config sizes: P50 = 400 bytes, P95 = 25 KB.
	l := LognormalFromQuantiles(0.50, 400, 0.95, 25000)
	if got := l.Quantile(0.50); math.Abs(got-400) > 1 {
		t.Errorf("P50 = %v, want 400", got)
	}
	if got := l.Quantile(0.95); math.Abs(got-25000) > 50 {
		t.Errorf("P95 = %v, want 25000", got)
	}
}

func TestLognormalSamplerMatchesQuantiles(t *testing.T) {
	l := LognormalFromQuantiles(0.50, 1000, 0.95, 45000)
	rng := NewRNG(42)
	c := NewCDF()
	for i := 0; i < 200000; i++ {
		c.Add(rng.Lognormal(l))
	}
	p50 := c.Quantile(0.5)
	if p50 < 900 || p50 > 1100 {
		t.Errorf("sampled P50 = %v, want ~1000", p50)
	}
	p95 := c.Quantile(0.95)
	if p95 < 40000 || p95 > 50000 {
		t.Errorf("sampled P95 = %v, want ~45000", p95)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(123)
	b := NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 10; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(1)
	sum, sum2 := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(20)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

func TestHash64Deterministic(t *testing.T) {
	if Hash64("abc") != Hash64("abc") {
		t.Error("Hash64 must be deterministic")
	}
	if Hash64("abc") == Hash64("abd") {
		t.Error("Hash64 should differ on different inputs")
	}
	f := HashFloat("user:12345")
	if f < 0 || f >= 1 {
		t.Errorf("HashFloat out of range: %v", f)
	}
}

// TestHashPrefixMatchesFormatted: extending a prefix state with an int64 is
// hashing the formatted string, so the Gatekeeper die is byte-compatible
// with HashFloat(fmt.Sprintf("%s:%d", project, id)). The two constants pin
// Hash64 itself to the values it had before it was expressed through Hash.
func TestHashPrefixMatchesFormatted(t *testing.T) {
	if got := Hash64(""); got != 0xf52a15e9a9b5e89b {
		t.Errorf("Hash64(\"\") = %#x", got)
	}
	if got := Hash64("Launch:-9223372036854775808"); got != 0x1538195de0e6a042 {
		t.Errorf("Hash64 of the MinInt64 die = %#x", got)
	}
	rng := NewRNG(7)
	ids := []int64{0, 1, -1, 9, 10, -10, 99, 100, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for i := 0; i < 2000; i++ {
		ids = append(ids, int64(rng.Uint64())>>uint(rng.Intn(64)))
	}
	for i, id := range ids {
		project := strings.Repeat("P\u00e9", i%4) + itoa(i%13)
		want := fmt.Sprintf("%s:%d", project, id)
		h := HashPrefix(project + ":").Int(id)
		if h.Sum64() != Hash64(want) || h.Float() != HashFloat(want) {
			t.Fatalf("HashPrefix(%q).Int(%d) differs from hashing %q", project+":", id, want)
		}
	}
}

func TestHashFloatUniform(t *testing.T) {
	// Bucket 100k hashed ids into deciles; each should hold ~10%.
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		f := HashFloat(strings.Repeat("x", i%7) + string(rune('a'+i%26)) + itoa(i))
		counts[int(f*10)]++
	}
	for d, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("decile %d has %d, want ~10000", d, c)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table X", "bucket", "share")
	tab.AddRow("1", 0.25)
	tab.AddRow("2", 0.499)
	s := tab.String()
	if !strings.Contains(s, "Table X") || !strings.Contains(s, "25.0%") || !strings.Contains(s, "49.9%") {
		t.Errorf("unexpected table rendering:\n%s", s)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "test"
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i%10))
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.MaxY() != 9 {
		t.Errorf("MaxY = %v, want 9", s.MaxY())
	}
	if math.Abs(s.MeanY()-4.5) > 1e-9 {
		t.Errorf("MeanY = %v, want 4.5", s.MeanY())
	}
	sp := s.Sparkline(20)
	if !strings.Contains(sp, "test") {
		t.Errorf("sparkline missing name: %s", sp)
	}
}

func TestSeriesSparklineEmpty(t *testing.T) {
	var s Series
	if got := s.Sparkline(10); !strings.Contains(got, "empty") {
		t.Errorf("empty sparkline = %q", got)
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRNG(3)
	over := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Pareto(1, 1.1) > 10 {
			over++
		}
	}
	// P(X > 10) = 10^-1.1 ~ 0.079
	frac := float64(over) / n
	if frac < 0.06 || frac > 0.10 {
		t.Errorf("Pareto tail fraction = %v, want ~0.079", frac)
	}
}
