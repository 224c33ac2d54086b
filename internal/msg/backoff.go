package msg

import "time"

// Backoff is a bounded jittered-exponential retry schedule. Attempt 0
// is the initial try (no delay); attempt n >= 1 waits
// min(Base*Factor^(n-1), Cap), spread by ±Jitter/2 around that value.
// After Attempts total tries the sender gives up.
type Backoff struct {
	Base     time.Duration // delay before the first retry
	Factor   float64       // multiplier per further retry (>= 1)
	Cap      time.Duration // upper bound on any single delay
	Attempts int           // total tries including the first (>= 1)
	Jitter   float64       // fraction of the delay randomized, in [0, 1]
}

// DefaultBackoff is the schedule NetTransport retries with: 4 tries, 2ms/4ms/8ms nominal delays, capped at 50ms,
// half-width jitter. Worst case a Send blocks the caller ~15ms — short
// enough for the serializing dispatcher, long enough to ride out a
// manager restart on loopback.
var DefaultBackoff = Backoff{
	Base:     2 * time.Millisecond,
	Factor:   2.0,
	Cap:      50 * time.Millisecond,
	Attempts: 4,
	Jitter:   0.5,
}

// Delay returns how long to wait before the given attempt (1-based
// retry index; attempt <= 0 returns 0). u is a uniform random sample in
// [0, 1) supplied by the caller, keeping the schedule itself pure and
// table-testable: the jittered delay is d*(1 - Jitter/2) + d*Jitter*u
// where d is the capped exponential value.
func (b Backoff) Delay(attempt int, u float64) time.Duration {
	if attempt <= 0 {
		return 0
	}
	d := float64(b.Base)
	for i := 1; i < attempt; i++ {
		d *= b.Factor
		if b.Cap > 0 && d >= float64(b.Cap) {
			d = float64(b.Cap)
			break
		}
	}
	if b.Cap > 0 && d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	if b.Jitter > 0 {
		d = d*(1-b.Jitter/2) + d*b.Jitter*u
	}
	return time.Duration(d)
}

// Exhausted reports whether the schedule allows no further try after
// the given number of completed tries.
func (b Backoff) Exhausted(tries int) bool {
	n := b.Attempts
	if n < 1 {
		n = 1
	}
	return tries >= n
}
