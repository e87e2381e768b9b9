package congestion

import (
	"math"
	"testing"
)

func TestTokenBucketBasics(t *testing.T) {
	b := NewTokenBucket(1000, 500) // 1000 bits/s, 500-bit bucket
	if !b.Allow(0, 500) {
		t.Fatal("full bucket denied its burst")
	}
	if b.Allow(0, 1) {
		t.Fatal("empty bucket allowed a send")
	}
	// After 0.25 s, 250 tokens refilled.
	if !b.Allow(0.25, 250) {
		t.Fatal("refill not credited")
	}
	if b.Allow(0.25, 1) {
		t.Fatal("over-credit after refill")
	}
}

func TestTokenBucketBurstCap(t *testing.T) {
	b := NewTokenBucket(1000, 500)
	b.Allow(0, 500)
	// A long idle period must not accumulate beyond the bucket depth.
	if b.Allow(100, 501) {
		t.Fatal("bucket exceeded its depth")
	}
	if !b.Allow(100, 500) {
		t.Fatal("bucket did not refill to depth")
	}
}

func TestTokenBucketTimeUntil(t *testing.T) {
	b := NewTokenBucket(1000, 500)
	b.Allow(0, 500)
	if got := b.TimeUntil(0, 300); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("TimeUntil = %v, want 0.3", got)
	}
	if got := b.TimeUntil(1, 300); got != 0 {
		t.Errorf("TimeUntil after refill = %v, want 0", got)
	}
}

func TestTokenBucketRateChange(t *testing.T) {
	b := NewTokenBucket(1000, 1000)
	b.Allow(0, 1000)
	b.SetRate(2000)
	if b.Rate() != 2000 {
		t.Errorf("Rate = %v", b.Rate())
	}
	if !b.Allow(0.5, 1000) {
		t.Error("doubled rate did not refill accordingly")
	}
}

func TestTokenBucketEnforcesLongRunRate(t *testing.T) {
	b := NewTokenBucket(1000, 100)
	sent := 0.0
	for now := 0.0; now < 10; now += 0.01 {
		if b.Allow(now, 50) {
			sent += 50
		}
	}
	// Long-run throughput ≈ rate × time (+ one burst).
	if sent > 1000*10+100+1 || sent < 1000*10*0.95 {
		t.Errorf("sent %v bits in 10 s at 1000 bps", sent)
	}
}

func TestTokenBucketValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTokenBucket(0, 1) },
		func() { NewTokenBucket(1, 0) },
		func() { NewTokenBucket(1, 1).Allow(0, 0) },
		func() { NewTokenBucket(1, 1).SetRate(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid token bucket usage accepted")
				}
			}()
			fn()
		}()
	}
}

func TestAIMDIncreaseOnCleanReports(t *testing.T) {
	a := NewAIMD(10000, 1000, 100000)
	r0 := a.Rate()
	for i := 0; i < 10; i++ {
		a.OnReport(0)
	}
	if a.Rate() <= r0 {
		t.Errorf("rate did not increase: %v -> %v", r0, a.Rate())
	}
	inc, dec := a.Stats()
	if inc != 10 || dec != 0 {
		t.Errorf("stats = (%d, %d)", inc, dec)
	}
}

func TestAIMDDecreaseOnLoss(t *testing.T) {
	a := NewAIMD(10000, 1000, 100000)
	got := a.OnReport(0.3)
	if math.Abs(got-5000) > 1e-9 {
		t.Errorf("rate after loss = %v, want 5000", got)
	}
}

func TestAIMDBounds(t *testing.T) {
	a := NewAIMD(2000, 1000, 3000)
	for i := 0; i < 20; i++ {
		a.OnReport(0.5)
	}
	if a.Rate() != 1000 {
		t.Errorf("rate below min: %v", a.Rate())
	}
	for i := 0; i < 1000; i++ {
		a.OnReport(0)
	}
	if a.Rate() != 3000 {
		t.Errorf("rate above max: %v", a.Rate())
	}
}

func TestAIMDToleranceBoundary(t *testing.T) {
	a := NewAIMD(10000, 1000, 100000)
	a.OnReport(a.Tolerance) // exactly at tolerance: not congestion
	inc, dec := a.Stats()
	if inc != 1 || dec != 0 {
		t.Errorf("tolerance-boundary report treated as loss: (%d, %d)", inc, dec)
	}
	a.OnReport(-0.5) // negative loss clamps to 0
	inc, _ = a.Stats()
	if inc != 2 {
		t.Error("negative loss not clamped")
	}
}

func TestAIMDValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewAIMD(5, 0, 10) },
		func() { NewAIMD(5, 10, 1) },
		func() { NewAIMD(0.5, 1, 10) },
		func() { NewAIMD(20, 1, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid AIMD accepted")
				}
			}()
			fn()
		}()
	}
}

// AIMD sawtooth: under periodic loss the long-run rate oscillates in a
// bounded band rather than diverging or collapsing.
func TestAIMDSawtooth(t *testing.T) {
	a := NewAIMD(50000, 1000, 1000000)
	var min, max float64 = math.Inf(1), 0
	for cycle := 0; cycle < 200; cycle++ {
		for i := 0; i < 9; i++ {
			a.OnReport(0)
		}
		a.OnReport(0.1)
		if cycle > 50 { // after convergence
			min = math.Min(min, a.Rate())
			max = math.Max(max, a.Rate())
		}
	}
	if max > 2*min+10*a.Increase {
		t.Errorf("sawtooth band too wide: [%v, %v]", min, max)
	}
	if min < 1000 || max > 1000000 {
		t.Errorf("sawtooth out of bounds: [%v, %v]", min, max)
	}
}

func TestTokenBucketBalanceTake(t *testing.T) {
	b := NewTokenBucket(1000, 100)
	if got := b.Balance(0); got != 100 {
		t.Fatalf("fresh balance %v, want full burst 100", got)
	}
	// Take may overdraw; the debt is repaid out of future refill.
	b.Take(0, 350)
	if got := b.Balance(0); got != -250 {
		t.Fatalf("balance after overdraft %v, want -250", got)
	}
	if got := b.Balance(0.25); got != 0 {
		t.Fatalf("balance after 0.25 s refill %v, want 0", got)
	}
	if got := b.Balance(1); got != 100 {
		t.Fatalf("balance should cap at burst, got %v", got)
	}
}

func TestTokenBucketTakeEnforcesLongRunRate(t *testing.T) {
	// Gate-on-positive-balance + exact Take is how driven senders
	// pace; it must hold the same long-run rate Allow does.
	b := NewTokenBucket(1000, 100)
	sent := 0.0
	for now := 0.0; now < 10; now += 0.001 {
		if b.Balance(now) > 0 {
			b.Take(now, 170) // "true size" learned after the gate
			sent += 170
		}
	}
	if sent > 1000*10+100+170 || sent < 1000*10*0.95 {
		t.Errorf("sent %v bits in 10 s at 1000 bps", sent)
	}
}

func TestTokenBucketTakeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Take(now, 0) should panic")
		}
	}()
	NewTokenBucket(1, 1).Take(0, 0)
}

func TestTokenBucketPaceWait(t *testing.T) {
	// Slow link: the quantum is 1 ms of tokens (1000 bits at 1 Mbit/s),
	// far below the batch cap, so a debt of one datagram is waited out
	// and no more.
	b := NewTokenBucket(1e6, 768e3)
	if got := b.PaceWait(0, 192e3); got != 0 {
		t.Fatalf("full bucket waits %v", got)
	}
	b.Take(0, 768e3+10200) // drained, 10200 bits in debt
	if got, want := b.PaceWait(0, 192e3), (10200+1000)/1e6; math.Abs(got-want) > 1e-12 {
		t.Errorf("PaceWait = %v, want %v", got, want)
	}
	// Fast link: 1 ms of tokens would be 400 kbit, so the cap (one
	// batch) is the quantum.
	f := NewTokenBucket(400e6, 768e3)
	f.Take(0, 768e3)
	if got, want := f.PaceWait(0, 192e3), 192e3/400e6; math.Abs(got-want) > 1e-12 {
		t.Errorf("capped PaceWait = %v, want %v", got, want)
	}
	// A rate change moves the quantum with it.
	f.SetRate(100e6)
	if got, want := f.PaceWait(0, 192e3), 100e3/100e6; math.Abs(got-want) > 1e-12 {
		t.Errorf("PaceWait after SetRate = %v, want %v", got, want)
	}
}
