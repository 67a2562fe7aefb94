// Retrier: capped exponential backoff with deterministic jitter for
// transient per-trial failures. Cancellation is never retried — a fired
// context must abort a sweep immediately, not after a backoff schedule.
package checkpoint

import (
	"context"
	"errors"
	"hash/fnv"
	"time"

	"cpsguard/internal/obs"
	"cpsguard/internal/rng"
	"cpsguard/internal/telemetry"
)

// Retrier retries transient errors with capped exponential backoff. The
// zero value performs no retries (one attempt, no sleeping), so it can be
// embedded unconditionally.
type Retrier struct {
	// MaxRetries is the number of re-attempts after the first failure
	// (total attempts = MaxRetries+1). 0 disables retrying.
	MaxRetries int
	// BaseDelay is the backoff before the first retry (default 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 2s).
	MaxDelay time.Duration
	// Jitter spreads each delay multiplicatively: the slept duration is
	// delay·(1 − Jitter/2 + Jitter·u) for a deterministic u ∈ [0,1), so
	// the mean is unchanged and the bounds are ±Jitter/2. Default 0.5;
	// set negative to disable jitter entirely.
	Jitter float64
	// Seed drives the jitter deterministically: the u for (key, attempt)
	// is a pure function of (Seed, key, attempt), so a replayed sweep
	// backs off identically.
	Seed uint64
	// Retryable decides whether an error is transient. The default
	// retries everything except context.Canceled/DeadlineExceeded;
	// cancellation is never retried even if a custom Retryable says yes.
	Retryable func(error) bool
	// Sleep is the injectable sleeper (default: timer that aborts early
	// when ctx fires). Tests install a fake clock here.
	Sleep func(ctx context.Context, d time.Duration) error
	// Log, when non-nil, records every granted retry as a structured
	// warn event keyed by the trial ID.
	Log *obs.Logger
}

func (r Retrier) baseDelay() time.Duration {
	if r.BaseDelay > 0 {
		return r.BaseDelay
	}
	return 10 * time.Millisecond
}

func (r Retrier) maxDelay() time.Duration {
	if r.MaxDelay > 0 {
		return r.MaxDelay
	}
	return 2 * time.Second
}

func (r Retrier) jitter() float64 {
	switch {
	case r.Jitter < 0:
		return 0
	case r.Jitter == 0:
		return 0.5
	default:
		return r.Jitter
	}
}

func (r Retrier) retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if r.Retryable != nil {
		return r.Retryable(err)
	}
	return true
}

func (r Retrier) sleep(ctx context.Context, d time.Duration) error {
	if r.Sleep != nil {
		return r.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Backoff returns the delay slept before retry attempt (0-based): the
// capped exponential BaseDelay·2^attempt, jittered deterministically from
// (Seed, key, attempt). Exported so tests and operators can inspect the
// exact schedule a trial will follow.
func (r Retrier) Backoff(key string, attempt int) time.Duration {
	raw := r.baseDelay()
	max := r.maxDelay()
	for i := 0; i < attempt && raw < max; i++ {
		raw *= 2
	}
	if raw > max {
		raw = max
	}
	j := r.jitter()
	if j == 0 {
		return raw
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	u := rng.Derive(r.Seed^h.Sum64()^0xB0FF, uint64(attempt)).Float64()
	return time.Duration(float64(raw) * (1 - j/2 + j*u))
}

// Do runs fn under the retry policy: up to MaxRetries re-attempts, backing
// off between attempts, keyed so distinct trials jitter independently. The
// context is checked before every attempt; cancellation (from the context
// or reported by fn) is returned immediately and never retried. The error
// of the final attempt is returned.
func Do[T any](ctx context.Context, r Retrier, key string, fn func() (T, error)) (T, error) {
	var zero T
	var lastErr error
	for attempt := 0; ; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				if lastErr != nil {
					return zero, lastErr
				}
				return zero, err
			}
		}
		v, err := fn()
		if err == nil {
			return v, nil
		}
		lastErr = err
		if attempt >= r.MaxRetries || !r.retryable(err) {
			return zero, err
		}
		sctx := ctx
		if sctx == nil {
			sctx = context.Background()
		}
		backoff := r.Backoff(key, attempt)
		if serr := r.sleep(sctx, backoff); serr != nil {
			return zero, err // canceled mid-backoff: surface the trial error
		}
		mRetries.Inc()
		// The active trial span (threaded via ctx) accounts the retry.
		telemetry.SpanFromContext(ctx).AddRetries(1)
		r.Log.WithTrial(key).Warn("retrying after transient failure",
			obs.F("attempt", attempt+1), obs.F("backoff", backoff), obs.F("err", err))
	}
}
