package spice

import (
	"context"

	"spice/internal/faults"
)

// This file is the parallel squash-recovery path, the native port of the
// simulator's remote-resteer mechanism (internal/rt): when the
// validation chain breaks on a capped chunk, the remainder of the
// traversal is NOT serialized onto one goroutine (the old runTail).
// Instead the idle/squashed workers are re-seeded: one chunk resumes
// from the breaking chunk's live position, and one speculative chunk
// starts from each remaining predicted row, chain-validated exactly like
// a primary invocation. Recovery chunks carry BalancedChunks plan
// entries anchored at their global positions, so the predictor
// re-memoizes along the way and the next invocation's split stays
// balanced.

// recoverParallel finishes the region left by a capped valid chunk.
// start is the breaking chunk's live stop state, globalPos its exact
// global iteration position, brokenRow the SVA row the breaking chunk
// was hunting, rows the invocation's prediction snapshot. It returns the
// merged remainder accumulator, the iterations committed, whether any
// recovery chunk was squashed (anySquash, feeding MisspecInvocations),
// whether any squash was judged a genuine misprediction (verdictMiss,
// feeding the adaptive controller — squashes behind a chunk that merely
// capped again are excluded, like the primary round's), and the first
// failure in iteration order (ctx cancellation, body error, or
// contained panic) — a deadline cannot be ignored by recovery rounds:
// each round re-checks ctx before dispatching and its chunks poll while
// running. Memoizations are appended to the scheduler's memo buffer at
// exact global positions; squash and recovery counters are updated on
// the runner's stats directly.
func (r *Runner[S, A]) recoverParallel(ctx context.Context, start S, globalPos int64, brokenRow int, rows []row[S], probe bool) (A, int64, bool, bool, error) {
	s := r.sched
	cap64 := r.pred.specCap(r.cfg.MaxSpecIters)
	acc := r.loop.Init()
	haveAcc := false
	var recWork int64
	misspec := false
	verdictMiss := false
	cur := start
	next := brokenRow // first candidate row for this round

	for {
		if cerr := ctx.Err(); cerr != nil {
			return acc, recWork, misspec, verdictMiss, cerr
		}
		// Fault-injection site: an injected Err/Cancel at the top of a
		// recovery round aborts the invocation mid-recovery — the exact
		// window where partial commits and re-planned chunks coexist.
		if ferr := r.cfg.Faults.Check(faults.RecoveryRound); ferr != nil {
			return acc, recWork, misspec, verdictMiss, ferr
		}
		r.pend.Recoveries++

		// Remaining predicted starts, in row order, subject to the same
		// adaptive confidence gate as primary dispatch. The broken row
		// is retried once here: the breaking chunk may simply have
		// capped before reaching it.
		cands := s.candBuf[:0]
		for k := next; k >= 0 && k < len(rows); k++ {
			if rows[k].valid && r.admitRow(k, probe) {
				cands = append(cands, k)
			}
		}
		s.candBuf = cands
		n := 1 + len(cands) // chunk 0 resumes from the live position

		// Replan each chunk from its (predicted) global position; chunk
		// 0's position is exact. Only balance depends on the prediction —
		// correctness comes from the validation chain.
		for len(s.recPlans) < n {
			s.recPlans = append(s.recPlans, nil)
		}
		for i := 0; i < n; i++ {
			base := globalPos
			if i > 0 {
				if p := rows[cands[i-1]].pos; p > base {
					base = p
				}
			}
			s.recPlans[i] = r.pred.planFromPosition(base, s.recPlans[i][:0])
		}

		// Dispatch: chunk 0 from the live state (no cap — its start is
		// architecturally correct), chunk i>0 speculatively from
		// candidate row i-1, each hunting the next candidate; launched
		// and joined exactly like the primary round (the resume chunk
		// inline on the invoking goroutine — a round with no speculative
		// candidates left never touches the executor at all). A recovery
		// round can fan wider than the primary dispatch did; record the
		// width so the next round's slot reset covers it.
		if n > s.used {
			s.used = n
		}
		for i := 0; i < n; i++ {
			st := cur
			posBase := globalPos
			if i > 0 {
				st = rows[cands[i-1]].start
				posBase = rows[cands[i-1]].pos
			}
			ownRow := -1
			var snap *row[S]
			if i < len(cands) {
				snap = &rows[cands[i]]
				ownRow = cands[i]
			}
			s.jobs[i].reset(r, ctx, st, snap, ownRow, i > 0, s.recPlans[i], posBase, cap64)
		}
		dispatchErr := s.dispatchRound(r, ctx, n)

		// Resolve the round's chain: commit the valid prefix at exact
		// global positions, squash the rest. A failed chunk in the valid
		// prefix fails the whole invocation (its predecessors all
		// matched, so its failure is the sequential-first one); chunks
		// behind it are squashed as usual. DOACROSS conflict validation
		// mirrors the primary round's: checked before the chunk's own
		// error can surface, against the union of everything committed
		// earlier in the invocation (primary round, earlier recovery
		// rounds, and this round's drained prefix).
		broke := 0
		conflictAt := -1
		var runErr error
		for i := 0; i < n; i++ {
			res := &s.results[i]
			if !res.active {
				// Dispatch was cut short by cancellation and the chain
				// matched its way to a chunk that never started.
				broke = i
				runErr = dispatchErr
				break
			}
			if s.cells != nil && i > 0 && s.views[i].conflicted() {
				conflictAt = i
				broke = i - 1
				break
			}
			if res.err != nil {
				broke = i
				runErr = res.err
				if s.cells != nil {
					// Match sequential partial-execution semantics: the
					// failing run's writes up to the failure point land.
					s.views[i].drain()
				}
				break
			}
			if haveAcc {
				acc = r.loop.Merge(acc, res.acc)
			} else {
				acc = res.acc
				haveAcc = true
			}
			if s.cells != nil {
				s.views[i].drain()
			}
			for _, pr := range res.props {
				s.memos = append(s.memos, memo[S]{row: pr.row, state: pr.state, pos: globalPos + pr.local})
			}
			globalPos += res.work
			recWork += res.work
			r.pend.RecoveryChunks++
			broke = i
			if !res.matched {
				break
			}
		}
		var roundSquash int64
		for i := broke + 1; i < n; i++ {
			roundSquash += s.results[i].work
			misspec = true
		}
		r.pend.SquashedIters += roundSquash
		if conflictAt >= 0 {
			r.pend.Conflicts++
			r.pend.ConflictIters += roundSquash
		}
		if runErr != nil {
			r.pend.SquashedIters += s.results[broke].work
			return acc, recWork, misspec, verdictMiss, runErr
		}

		// Confidence verdicts, mirroring the primary round: committed
		// speculative recovery chunks are hits for their rows. Squashed
		// ones are misses only when the round broke on a chunk that ran
		// out of traversal; behind a chunk that merely capped again the
		// squash is a capacity artifact and the rows are retried by the
		// next round — and a conflict squash is likewise no miss (the
		// prediction was validated; the data raced). Failed rounds
		// (above) record nothing — an aborted chunk's squash says
		// nothing about its prediction.
		capArtifact := conflictAt >= 0 || s.results[broke].capped
		for i := 1; i < n; i++ {
			if i <= broke {
				r.noteHit(cands[i-1], s.jobs[i].reclaimed)
			} else if !capArtifact {
				r.noteMiss(cands[i-1], s.jobs[i].reclaimed)
				verdictMiss = true
			}
		}

		if conflictAt >= 0 {
			// Re-execute from the conflicting chunk's validated start; the
			// row it was hunting gets its retry as the next round's first
			// candidate. next strictly advances past cands[conflictAt-1]
			// every conflict round, so recovery still terminates.
			cur = s.jobs[conflictAt].start
			if conflictAt < len(cands) {
				next = cands[conflictAt]
			} else {
				next = len(rows)
			}
			continue
		}

		res := &s.results[broke]
		if !res.capped {
			return acc, recWork, misspec, verdictMiss, nil // reached the end of the traversal
		}
		// Capped again: next round resumes from the new live position.
		// The row this chunk was hunting had its retry; drop it. Each
		// continuing round commits at least cap iterations, so recovery
		// terminates on any finite traversal.
		cur = res.endState
		if broke < len(cands) {
			next = cands[broke] + 1
		} else {
			next = len(rows)
		}
	}
}
