package main

import "testing"

func TestPercentileFallsBackBelowTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{
		{1000, 0.99}, // exactly 10 samples above p99
		{999, 0.98},  // 9 above p99, 19 above p98
		{500, 0.98},  // 5 above p99, 10 above p98
		{200, 0.95},
		{40, 0.75},
		{15, 0.5}, // nothing supports a tail: the median
	} {
		samples := make([]float64, c.n)
		for i := range samples {
			samples[i] = float64(c.n - i) // reversed: percentileOf must sort
		}
		q := percentileOf(samples, 0.99)
		if q.P != c.wantP {
			t.Errorf("n=%d: reported p%v, want p%v", c.n, q.P*100, c.wantP*100)
		}
		if q.Samples != c.n {
			t.Errorf("n=%d: sample count %d", c.n, q.Samples)
		}
		beyond := 0
		for _, v := range samples {
			if v > q.Value {
				beyond++
			}
		}
		if c.n >= 20 && beyond < minBeyond {
			t.Errorf("n=%d: p%v = %v has only %d samples beyond it", c.n, q.P*100, q.Value, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}
