// Package stats holds the small numeric helpers shared by the serving
// harness and the benchmark tables, so latency rows emitted by tfgc serve
// and the repository benchmark can never disagree on methodology.
package stats

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending-sorted
// sample by the nearest-rank-below rule: index ⌊p·(n-1)⌋, no
// interpolation. Degenerate inputs are defined rather than out-of-range:
// an empty sample reports 0 (a run that never collected has no pause to
// report), a single sample is every percentile of itself, and p is
// clamped to [0, 1] so a caller's 99.9 typo cannot index past the slice.
func Percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	return sorted[int(p*float64(len(sorted)-1))]
}
