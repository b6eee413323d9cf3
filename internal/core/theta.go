package core

import "math"

// ThetaBound returns the number of sampled graphs sufficient for the
// estimator's guarantee of Theorem 5: with θ ≥ l·(2+ε)·n·ln(n) / (ε²·optLB)
// samples, |ξ→u(s,G) − OPT| < ε·OPT holds with probability at least
// 1 − n^(−l), where OPT is the true spread decrease of the vertex under
// estimation and optLB a lower bound on it.
//
// optLB = 1 is always valid (blocking any vertex reachable from the seed
// decreases the spread by at least its own activation probability times 1;
// for candidates that matter, at least the vertex itself is lost), making
// the bound O(n log n) samples — the paper's practical θ of 10⁴ reflects
// that real spreads are far larger than 1, so far fewer samples suffice
// (Figure 5 verifies this).
func ThetaBound(n int, eps, l, optLB float64) int {
	if n < 2 {
		return 1
	}
	if eps <= 0 || l <= 0 || optLB <= 0 {
		panic("core: ThetaBound requires positive eps, l and optLB")
	}
	theta := l * (2 + eps) * float64(n) * math.Log(float64(n)) / (eps * eps * optLB)
	return int(math.Ceil(theta))
}
