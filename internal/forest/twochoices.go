package forest

import "math/rand"

// TwoChoices is read only by benchmark/; delete after the benchmark-only follow-up.
func TwoChoices(roots []int, load func(int) float64, rng *rand.Rand) int {
	switch len(roots) {
	case 0:
		return -1
	case 1:
		return roots[0]
	}
	i := rng.Intn(len(roots))
	j := rng.Intn(len(roots) - 1)
	if j >= i {
		j++
	}
	a, b := roots[i], roots[j]
	if load(b) < load(a) {
		return b
	}
	return a
}
