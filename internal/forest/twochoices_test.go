package forest

import (
	"math"
	"math/rand"
	"testing"
)

// TestTwoChoicesUniform checks the sampling distribution under equal loads:
// every root must be picked with frequency close to 1/k.
func TestTwoChoicesUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	roots := []int{3, 9, 12, 17}
	flat := func(int) float64 { return 0 }
	counts := make(map[int]int)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[TwoChoices(roots, flat, rng)]++
	}
	want := float64(n) / float64(len(roots))
	for _, r := range roots {
		if dev := math.Abs(float64(counts[r]) - want); dev > 0.05*want {
			t.Errorf("root %d picked %d times, want ~%.0f", r, counts[r], want)
		}
	}
}

// TestTwoChoicesBalances runs the classic balls-into-bins experiment: each
// pick increments the chosen root's load. Two choices must keep the final
// spread dramatically tighter than one random choice does.
func TestTwoChoicesBalances(t *testing.T) {
	const bins, balls = 8, 8000
	roots := make([]int, bins)
	for i := range roots {
		roots[i] = i
	}

	spread := func(loads []float64) float64 {
		min, max := loads[0], loads[0]
		for _, l := range loads {
			min, max = math.Min(min, l), math.Max(max, l)
		}
		return max - min
	}

	rng := rand.New(rand.NewSource(7))
	two := make([]float64, bins)
	for i := 0; i < balls; i++ {
		v := TwoChoices(roots, func(r int) float64 { return two[r] }, rng)
		two[v]++
	}
	one := make([]float64, bins)
	for i := 0; i < balls; i++ {
		one[rng.Intn(bins)]++
	}

	// Two-choices with load feedback self-corrects: any bin more than one
	// ball ahead loses every comparison it appears in, so the spread stays
	// O(1) while single-choice drifts like sqrt(balls).
	if s := spread(two); s > 4 {
		t.Errorf("two-choices spread = %v, want <= 4", s)
	}
	if spread(two) >= spread(one) {
		t.Errorf("two-choices spread %v not tighter than single-choice %v",
			spread(two), spread(one))
	}
}

func TestTwoChoicesDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	flat := func(int) float64 { return 0 }
	if got := TwoChoices(nil, flat, rng); got != -1 {
		t.Errorf("no roots: got %d, want -1", got)
	}
	if got := TwoChoices([]int{5}, flat, rng); got != 5 {
		t.Errorf("one root: got %d, want 5", got)
	}
}
