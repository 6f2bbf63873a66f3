package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirectComputation(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.n != 8 {
		t.Fatalf("N = %d", w.n)
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", w.Mean())
	}
	if math.Abs(w.Variance()-4) > 1e-12 {
		t.Errorf("variance = %g, want 4", w.Variance())
	}
	if math.Abs(w.StdDev()-2) > 1e-12 {
		t.Errorf("stddev = %g, want 2", w.StdDev())
	}
	if w.min != 2 || w.max != 9 {
		t.Errorf("min/max = %g/%g", w.min, w.max)
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty accumulator not zero")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 || w.min != 42 || w.max != 42 {
		t.Error("single-sample stats wrong")
	}
}

// Property: Welford matches the two-pass formula on random data.
func TestWelfordMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, r := range raw {
			x := float64(r) / 100
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			x := float64(r) / 100
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(raw))
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-wantVar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpatialStdDev(t *testing.T) {
	if got := SpatialStdDev(nil); got != 0 {
		t.Errorf("empty = %g", got)
	}
	if got := SpatialStdDev([]float64{5, 5, 5}); got != 0 {
		t.Errorf("uniform = %g", got)
	}
	// {60, 50, 40}: mean 50, deviations {10,0,-10}: std = sqrt(200/3).
	want := math.Sqrt(200.0 / 3.0)
	if got := SpatialStdDev([]float64{60, 50, 40}); math.Abs(got-want) > 1e-12 {
		t.Errorf("spatial = %g, want %g", got, want)
	}
}

func TestTempCollector(t *testing.T) {
	tc := NewTempCollector(3)
	tc.Sample([]float64{62, 54, 52})
	tc.Sample([]float64{60, 55, 53})
	if tc.samples != 2 {
		t.Fatalf("samples = %d", tc.samples)
	}
	if tc.MeanSpatialStdDev() <= 0 {
		t.Error("spatial stddev not positive")
	}
	if got, want := tc.MeanGradient(), (10.0+7.0)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("gradient = %g, want %g", got, want)
	}
	if tc.MaxTemp != 62 {
		t.Errorf("MaxTemp = %g", tc.MaxTemp)
	}
	if tc.PerCore[0].StdDev() <= 0 {
		t.Error("temporal stddev core0 not positive")
	}
	if tc.MeanTemporalStdDev() <= 0 {
		t.Error("mean temporal stddev not positive")
	}
}

func TestTempCollectorBalancedVsUnbalanced(t *testing.T) {
	// A perfectly balanced trace must yield lower spatial stddev than an
	// unbalanced one — the sanity property behind Figures 7 and 9.
	bal := NewTempCollector(3)
	unbal := NewTempCollector(3)
	for i := 0; i < 100; i++ {
		bal.Sample([]float64{55, 55.5, 54.5})
		unbal.Sample([]float64{62, 54, 52})
	}
	if bal.MeanSpatialStdDev() >= unbal.MeanSpatialStdDev() {
		t.Errorf("balanced %g >= unbalanced %g", bal.MeanSpatialStdDev(), unbal.MeanSpatialStdDev())
	}
}

func TestMeanTemporalStdDevEmptyCollector(t *testing.T) {
	tc := NewTempCollector(0)
	if tc.MeanTemporalStdDev() != 0 {
		t.Error("empty collector temporal stddev != 0")
	}
}
