package server

// The self-healing layer: the watchdog sweep, run by the housekeeping
// loop every sweepInterval over the server's job table.
//
//   - Overdue jobs — still unfinished past their admission deadline plus
//     the grace — are force-cancelled (once; spiced_jobs_watchdog_
//     killed_total counts them). The job's own context already carries
//     the JobTimeout deadline, so this is belt and braces: it catches
//     jobs whose timeout was lost to a wedged dispatcher or a context
//     plumbing bug, and it is what makes Drain converge when a fault
//     (injected or real) stalls a dispatcher mid-job.
//   - A job that is still unfinished a further grace past its force-
//     cancel marks the dispatcher wedged: something below the job layer
//     is ignoring cancellation. /healthz flips to 503 until the job
//     finally settles (the flag is recomputed from scratch every sweep,
//     so the server heals itself the moment the wedge clears).
//   - Finished-but-never-fetched async jobs older than resultTTL are
//     expired from the table (spiced_async_jobs_expired_total), freeing
//     their slots so an abandoned poller cannot starve /v1/submit
//     through asyncCap.

import "time"

// resultTTL is how long a finished async job's result waits to be
// fetched before the sweep frees its slot.
const resultTTL = 2 * time.Minute

// grace is the slack past a job's deadline before the watchdog
// force-cancels it, and again before it reports the dispatcher wedged:
// a fifteenth of JobTimeout, 2 s at the 30 s default.
func (s *Server) grace() time.Duration { return s.cfg.JobTimeout / 15 }

// sweepInterval paces the watchdog: eight sweeps per grace, 250 ms at
// the default JobTimeout.
func (s *Server) sweepInterval() time.Duration { return s.grace() / 8 }

// sweep runs one watchdog pass at the given instant (split out from the
// loop so tests can drive it deterministically).
func (s *Server) sweep(now time.Time) {
	grace := s.grace()
	wedged := false
	s.mu.Lock()
	for _, j := range s.jobs {
		if jobState(j.state.Load()) == jobDone {
			if j.async && now.Sub(time.Unix(0, j.doneAt.Load())) > resultTTL {
				s.forget(j)
				s.met.asyncExpired.Add(1)
			}
			continue
		}
		deadline, _ := j.ctx.Deadline()
		over := now.Sub(deadline)
		if over <= grace {
			continue
		}
		if j.killed.CompareAndSwap(false, true) {
			// First time past deadline+grace: force-cancel. The job's
			// execution path observes the context and settles.
			j.cancel()
			s.met.watchdogKilled.Add(1)
		} else if over > 2*grace {
			// Force-cancelled at least a sweep ago, a full extra grace
			// burned, and the job still has not settled: whatever is
			// running it is ignoring cancellation. Report the dispatcher
			// wedged until the job clears.
			wedged = true
		}
	}
	s.mu.Unlock()
	s.wedged.Store(wedged)
}
