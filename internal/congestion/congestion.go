// Package congestion provides the small congestion-management
// substrate SSTP delegates to (the paper explicitly leaves total-rate
// determination to an external module like the CM): a token-bucket
// pacer that enforces a byte rate on outgoing datagrams, and an AIMD
// rate controller driven by receiver-report loss estimates. SSTP asks
// this module "what is my session bandwidth", then divides that
// bandwidth with the profile-driven allocator.
package congestion

import (
	"fmt"
	"math"

	"softstate/internal/obs"
)

// TokenBucket enforces an average rate with bounded burst. All
// methods take explicit timestamps in seconds (simulated or wall
// clock).
type TokenBucket struct {
	rate   float64 // tokens (e.g. bits) per second
	burst  float64 // bucket depth
	tokens float64
	last   float64
}

// NewTokenBucket returns a full bucket with the given rate and depth.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate <= 0 || burst <= 0 {
		panic(fmt.Sprintf("congestion: rate %v and burst %v must be positive", rate, burst))
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

func (b *TokenBucket) refill(now float64) {
	if now > b.last {
		b.tokens += (now - b.last) * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// Allow consumes cost tokens if available at time now, reporting
// whether the send may proceed.
func (b *TokenBucket) Allow(now, cost float64) bool {
	if cost <= 0 {
		panic(fmt.Sprintf("congestion: non-positive cost %v", cost))
	}
	b.refill(now)
	if b.tokens < cost {
		return false
	}
	b.tokens -= cost
	return true
}

// TimeUntil returns how long after now the bucket will hold cost
// tokens (0 if it already does).
func (b *TokenBucket) TimeUntil(now, cost float64) float64 {
	b.refill(now)
	if b.tokens >= cost {
		return 0
	}
	return (cost - b.tokens) / b.rate
}

// Balance returns the token balance after refilling to time now. A
// driven sender (one paced by an external scheduler rather than its
// own send loop) gates on a positive balance before building a
// datagram, then charges the true size with Take.
func (b *TokenBucket) Balance(now float64) float64 {
	b.refill(now)
	return b.tokens
}

// Take unconditionally consumes cost tokens at time now, letting the
// balance go negative. Callers that only learn a send's true cost
// after committing to it charge exactly and repay any overdraft out
// of future refill, so the long-run rate still holds.
func (b *TokenBucket) Take(now, cost float64) {
	if cost <= 0 {
		panic(fmt.Sprintf("congestion: non-positive cost %v", cost))
	}
	b.refill(now)
	b.tokens -= cost
}

// PacingQuantum is how much link time a paced send loop lets the
// bucket accumulate before it wakes to build datagrams: long enough
// that a fast link is not woken once per datagram, and on a slow link
// less than one datagram's worth, so the loop sends the moment its
// debt is repaid. A fixed constant, as in TCP's TSO autosizing.
const PacingQuantum = 1e-3 // seconds

// PaceWait returns how long after now the bucket will hold one pacing
// quantum — PacingQuantum of tokens at the current rate, capped at
// batch, the most one wake-up can spend (0 if it already does). A
// send loop waits this out *before* it picks what to send, then sends
// while Balance is positive and charges each datagram with Take: a
// batch is a syscall-amortisation unit, never a pacing unit. batch
// must not exceed the bucket depth.
func (b *TokenBucket) PaceWait(now, batch float64) float64 {
	return b.TimeUntil(now, math.Min(b.rate*PacingQuantum, batch))
}

// Rate returns the current token rate.
func (b *TokenBucket) Rate() float64 { return b.rate }

// SetRate changes the refill rate (e.g. when AIMD adapts).
func (b *TokenBucket) SetRate(rate float64) {
	if rate <= 0 {
		panic(fmt.Sprintf("congestion: rate %v must be positive", rate))
	}
	b.rate = rate
}

// AIMD is a loss-driven additive-increase / multiplicative-decrease
// rate controller: each receiver-report interval with loss at or below
// the tolerance adds Increase bps; an interval above it multiplies the
// rate by Decrease.
type AIMD struct {
	rate     float64
	min, max float64

	// Increase is the additive step in rate units per report.
	Increase float64
	// Decrease is the multiplicative backoff factor in (0, 1).
	Decrease float64
	// Tolerance is the loss fraction considered congestion-free.
	Tolerance float64

	increases int
	decreases int

	incC  *obs.Counter
	decC  *obs.Counter
	rateG *obs.Gauge
}

// Instrument publishes the controller's rate decisions to reg:
// sstp_rate_changes_total{dir="up"|"down"} and the sstp_send_rate_bps
// gauge. Safe with a nil registry.
func (a *AIMD) Instrument(reg *obs.Registry) {
	a.incC = reg.Counter("sstp_rate_changes_total", "dir", "up")
	a.decC = reg.Counter("sstp_rate_changes_total", "dir", "down")
	a.rateG = reg.Gauge("sstp_send_rate_bps")
	a.rateG.Set(a.rate)
}

// NewAIMD returns a controller starting at initial, bounded to
// [min, max], with conventional defaults (increase 5% of min per
// report, decrease 0.5, tolerance 2%).
func NewAIMD(initial, min, max float64) *AIMD {
	if min <= 0 || max < min || initial < min || initial > max {
		panic(fmt.Sprintf("congestion: bad AIMD bounds initial=%v min=%v max=%v", initial, min, max))
	}
	return &AIMD{
		rate: initial, min: min, max: max,
		Increase: 0.05 * min, Decrease: 0.5, Tolerance: 0.02,
	}
}

// Rate returns the current sending rate.
func (a *AIMD) Rate() float64 { return a.rate }

// OnReport folds one receiver-report loss estimate into the rate and
// returns the new rate.
func (a *AIMD) OnReport(loss float64) float64 {
	if loss < 0 {
		loss = 0
	}
	if loss > a.Tolerance {
		a.rate *= a.Decrease
		a.decreases++
		a.decC.Inc()
	} else {
		a.rate += a.Increase
		a.increases++
		a.incC.Inc()
	}
	if a.rate < a.min {
		a.rate = a.min
	}
	if a.rate > a.max {
		a.rate = a.max
	}
	a.rateG.Set(a.rate)
	return a.rate
}

// Stats returns the number of increase and decrease steps taken.
func (a *AIMD) Stats() (increases, decreases int) { return a.increases, a.decreases }
