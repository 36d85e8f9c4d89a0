// Package analysis provides the paper's closed-form completion times and
// lower bounds (Sections 2.2 and 3.1), plus the statistical tooling used
// by the experiment harness: mean/confidence-interval estimation and the
// least-squares fit of Section 2.4.4.
//
// Notation: n is the total node count (server + N clients, so N = n - 1)
// and k is the number of file blocks. All times are in ticks with the
// paper's unit upload bandwidth.
package analysis

import "fmt"

// CeilLog2 returns ⌈log2 x⌉ for x >= 1, and 0 for x < 1.
func CeilLog2(x int) int {
	r := 0
	for 1<<uint(r) < x {
		r++
	}
	return r
}

// CooperativeLowerBound is Theorem 1: disseminating k blocks among n
// nodes (one of which starts with the file) takes at least
// k - 1 + ⌈log2 n⌉ ticks.
//
// Derivation (re-derived from the proof in the text, whose displayed
// formula is OCR-garbled): after the first k - 1 ticks the server has
// uploaded at most k - 1 blocks, so some block is still held only by the
// server; the number of holders of that block can at most double per
// tick, which takes ⌈log2 n⌉ further ticks to reach all n nodes.
func CooperativeLowerBound(n, k int) int {
	if n <= 1 {
		return 0
	}
	return k - 1 + CeilLog2(n)
}

// PipelineTime is the completion time of the chain pipeline of Section
// 2.2.1: k ticks to drain the server plus n - 2 hops for the last block.
func PipelineTime(n, k int) int {
	if n <= 1 {
		return 0
	}
	return k + n - 2
}

// BinomialTreeTime is the blockwise binomial broadcast of Section 2.2.3:
// each of the k blocks takes a full ⌈log2 n⌉-tick doubling phase.
func BinomialTreeTime(n, k int) int {
	if n <= 1 {
		return 0
	}
	return k * CeilLog2(n)
}

// BinomialPipelineTime is the optimal completion time achieved by the
// Binomial Pipeline when n is a power of two: k - 1 + log2 n, matching
// CooperativeLowerBound exactly.
func BinomialPipelineTime(n, k int) (int, error) {
	if n < 2 {
		return 0, fmt.Errorf("analysis: need n >= 2, got %d", n)
	}
	if n&(n-1) != 0 {
		return 0, fmt.Errorf("analysis: closed form requires n to be a power of two, got %d", n)
	}
	return k - 1 + CeilLog2(n), nil
}

// StrictBarterLowerBoundEqualBW is the D = U case of Theorem 2
// (re-derived): every client's first block comes from the server, at most
// one per tick, so the last client starts at tick >= N = n - 1; with
// download capacity 1 it then needs k - 1 further ticks:
// T >= N + k - 1.
func StrictBarterLowerBoundEqualBW(n, k int) int {
	if n <= 1 {
		return 0
	}
	return (n - 1) + k - 1
}

// StrictBarterLowerBound is the general-D case of Theorem 2
// (re-derived via the counting argument in the proof): at tick t at most
// min(t-1, N) clients hold any data, and barter moves blocks in pairs,
// so the system-wide upload count at tick t is at most
// 1 + 2*⌊min(t-1, N)/2⌋. The counting bound is the smallest T with
// Σ_{t=1..T} u(t) >= N*k; since strict barter is a restriction of the
// cooperative model, the result is combined with Theorem 1's bound
// (which dominates when k >> N).
func StrictBarterLowerBound(n, k int) int {
	if n <= 1 {
		return 0
	}
	coop := CooperativeLowerBound(n, k)
	needed := (n - 1) * k
	total := 0
	for t := 1; ; t++ {
		withData := t - 1
		if withData > n-1 {
			withData = n - 1
		}
		total += 1 + 2*(withData/2)
		if total >= needed {
			if t < coop {
				return coop
			}
			return t
		}
	}
}

// CreditLimitedLowerBound equals the cooperative bound (Section 3.2.2):
// the credit mechanism does not slow the information-theoretic doubling
// argument because first blocks are free.
func CreditLimitedLowerBound(n, k int) int {
	return CooperativeLowerBound(n, k)
}

// RandomizedFit are the paper's reported least-squares coefficients for
// the randomized cooperative algorithm on a complete graph
// (Section 2.4.4): T ≈ 1.01·k + 2.5·log2(n) − 2.2.
type RandomizedFit struct {
	KCoeff    float64
	LogNCoeff float64
	Const     float64
}

// PaperRandomizedFit is the fit reported in the paper's text.
var PaperRandomizedFit = RandomizedFit{KCoeff: 1.01, LogNCoeff: 2.5, Const: -2.2}

// Predict evaluates the fit at (n, k).
func (f RandomizedFit) Predict(n, k int) float64 {
	return f.KCoeff*float64(k) + f.LogNCoeff*log2(float64(n)) + f.Const
}
