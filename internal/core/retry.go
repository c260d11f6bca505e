package core

import (
	"errors"
	"time"
)

// RetryPolicy makes an asynchronous operation survive transient
// failures: attach one with WithRetry to ReadAsync / WriteAsync /
// ReadSliceAsync / WriteSliceFuture / CopyAsync / AsyncTaskFuture and
// the runtime re-issues the operation on a per-attempt reply deadline
// instead of waiting forever on a lost frame, failing the future typed
// (ErrTimeout or ErrRankDead) only when the policy is exhausted or the
// target is declared dead.
//
// Retries need the failure machinery underneath: a resilient wire job
// (Config.Resilient) supplies the reply deadlines and the death
// detector. On a non-resilient wire job a policy degrades to a single
// attempt, and the in-process backend ignores it entirely (an
// in-process transfer cannot be lost). Data-movement retries (reads,
// writes, copies) are idempotent; a retried AsyncTaskFuture re-sends
// the same call, so its body may execute more than once — at-least-once
// semantics, see AsyncTaskFuture.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included
	// (default 3).
	MaxAttempts int
	// Backoff is the delay before the second attempt, doubling for
	// each further one (default 1ms).
	Backoff time.Duration
	// AttemptTimeout bounds each attempt: an attempt with no reply
	// after this long fails with ErrTimeout and (if retryable and
	// attempts remain) is re-issued. Zero means no per-attempt
	// deadline — only rank death fails the operation.
	AttemptTimeout time.Duration
	// Retryable decides whether an attempt's failure is worth another
	// try. Default: everything except ErrRankDead (a dead target fails
	// fast; a timeout retries).
	Retryable func(error) bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = time.Millisecond
	}
	return p
}

func (p RetryPolicy) retryable(err error) bool {
	if p.Retryable != nil {
		return p.Retryable(err)
	}
	return !errors.Is(err, ErrRankDead)
}

// WithRetry attaches the policy to one asynchronous operation.
func WithRetry(p RetryPolicy) AsyncOpt {
	return asyncOptFn(func(c *asyncCfg) { c.retry = &p })
}

// afterCd schedules fn on this rank's goroutine after d, using the
// resilient conduit's tick-driven timer service; without one (no
// resilience, or in-process) it runs fn immediately — the caller's
// backoff degenerates to an eager retry.
func (r *Rank) afterCd(d time.Duration, fn func()) {
	if r.rcd != nil {
		r.rcd.After(d, fn)
		return
	}
	fn()
}

// startAsync drives one non-blocking conduit transfer to completion
// under pol (nil = single attempt): start issues one attempt with the
// per-attempt timeout and must honor the Conduit.GetAsync contract (a
// non-nil return means its callback never fires; otherwise it fires
// exactly once). ok or bad runs exactly once, on this rank's
// goroutine, possibly before startAsync returns.
func (r *Rank) startAsync(pol *RetryPolicy,
	start func(timeout time.Duration, done func(error)) error, ok func(), bad func(error)) {
	if pol == nil {
		if err := start(0, func(err error) {
			if err != nil {
				bad(err)
				return
			}
			ok()
		}); err != nil {
			if r.rcd != nil {
				bad(err)
				return
			}
			// Legacy behavior: a conduit send failure without resilience
			// means the transport tore down — abort the job.
			r.mustCd(err)
		}
		return
	}
	p := pol.withDefaults()
	attempt := 0
	backoff := p.Backoff
	var tryOnce func()
	tryOnce = func() {
		attempt++
		a := attempt
		done := func(err error) {
			if err == nil {
				ok()
				return
			}
			if a >= p.MaxAttempts || !p.retryable(err) {
				bad(err)
				return
			}
			d := backoff
			backoff *= 2
			r.afterCd(d, tryOnce)
		}
		if err := start(p.AttemptTimeout, done); err != nil {
			done(err)
		}
	}
	tryOnce()
}
