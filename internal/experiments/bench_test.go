package experiments

import "testing"

// TestPercentile pins the nearest-rank-below rule and the degenerate
// cases: empty → 0, single sample → itself at every p, out-of-range p
// clamped to the extremes.
func TestPercentile(t *testing.T) {
	cases := []struct {
		name   string
		sorted []int64
		p      float64
		want   int64
	}{
		{"empty", nil, 0.5, 0},
		{"empty p0", []int64{}, 0, 0},
		{"single p0", []int64{42}, 0, 42},
		{"single p50", []int64{42}, 0.5, 42},
		{"single p100", []int64{42}, 1, 42},
		{"pair p50 rounds down", []int64{10, 20}, 0.5, 10},
		{"five p0", []int64{1, 2, 3, 4, 5}, 0, 1},
		{"five p50", []int64{1, 2, 3, 4, 5}, 0.5, 3},
		{"five p90 rounds down", []int64{1, 2, 3, 4, 5}, 0.9, 4},
		{"five p100", []int64{1, 2, 3, 4, 5}, 1, 5},
		{"p below range clamps", []int64{1, 2, 3}, -0.5, 1},
		{"p above range clamps", []int64{1, 2, 3}, 99.9, 3},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %d, want %d", c.name, c.sorted, c.p, got, c.want)
		}
	}
}
