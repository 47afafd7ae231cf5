package sched

import "repro/internal/faults"

// FaultHooks adapts a fault injector to the scheduler's failure and
// slowdown hooks:
//
//	failure, slowdown := sched.FaultHooks(inj)
//	s, _ := sched.New(sched.Config{..., FailureFn: failure, SlowdownFn: slowdown})
//
// Decisions are keyed by (job ID, attempt), so a requeued attempt is an
// independent draw and an identically seeded injector reproduces the
// same failure pattern across runs. Node faults are checked before
// plain job failures. A nil injector yields hooks that never fail or
// slow anything.
func FaultHooks(inj *faults.Injector) (failure func(Job, int) (string, float64), slowdown func(Job, int) float64) {
	failure = func(j Job, attempt int) (string, float64) {
		if inj.NodeFails(j.ID, attempt) {
			return StateNodeFail, inj.FailFraction(j.ID, attempt)
		}
		if inj.JobFails(j.ID, attempt) {
			return StateFailed, inj.FailFraction(j.ID, attempt)
		}
		return "", 0
	}
	slowdown = func(j Job, attempt int) float64 {
		return inj.Slowdown(j.ID, attempt)
	}
	return failure, slowdown
}
