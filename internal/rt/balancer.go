package rt

import "fmt"

// PlanScheme selects how chunk boundaries are assigned to memoizing
// threads by the central planner.
type PlanScheme int

const (
	// BalancedChunks (the default) plans in global work coordinates.
	// Every memoized SVA row records the writer thread and the local
	// work position at which it was captured (the sva_note intrinsic),
	// so the planner can reconstruct exactly where each thread will
	// start next invocation: start(k+1) = start(writer) + localPos of
	// row k. Each desired boundary B_k = floor(W·k/t) is then assigned
	// to the running thread whose next chunk contains it, at local
	// threshold B_k − start(thread). This both rebalances skewed chunks
	// (thresholds fire inside the actual chunk) and self-heals after
	// squashes (a thread that overruns its chunk crosses the remaining
	// boundaries at correct positions). In the paper's 10/1/1 example
	// thread 0 still receives svat=[4,8], svai=[0,1].
	BalancedChunks PlanScheme = iota
	// PaperIntervals is the scheme exactly as described in Section 4:
	// boundary B_k goes to the thread whose *measured* cumulative work
	// interval (prefix_i, prefix_i + w_i] contains it, at local
	// threshold B_k − prefix_i. After unbalanced invocations this can
	// leave rows unmemoized (the thread that was planned to write them
	// stops early once predictions kick in), causing
	// parallel/sequential oscillation — the ablation benchmark
	// BenchmarkAblationPlanScheme quantifies this.
	PaperIntervals
)

// balancer holds the load-balancing value-predictor state of Section 4:
// per-thread svat threshold lists and svai index lists, consumed
// head-first by the memoization code (Algorithm 2), plus the central
// planning step executed by the main thread at the end of each
// invocation.
//
// Planning uses the paper's assumption 1 (the next invocation performs
// the same total work W) and a boundary-assignment scheme selected by
// PlanScheme.
//
// Bootstrap: before any work history exists (and again if an invocation
// performs zero work), the main thread memoizes at power-of-two
// thresholds into candidate slots; planning then fills unwritten SVA
// rows from the candidates nearest each boundary.
type balancer struct {
	threads int
	svaRows int
	scheme  PlanScheme

	thresholds [][]int64
	indices    [][]int64
	cursor     []int

	bootstrapped bool
	prevTotal    int64
}

func newBalancer(threads, svaRows int) *balancer {
	b := &balancer{
		threads:    threads,
		svaRows:    svaRows,
		thresholds: make([][]int64, threads),
		indices:    make([][]int64, threads),
		cursor:     make([]int, threads),
	}
	b.installBootstrap()
	return b
}

// installBootstrap gives the main thread power-of-two memoization
// thresholds targeting the candidate slots.
func (b *balancer) installBootstrap() {
	var thr, idx []int64
	for c := 0; c < maxCandidates; c++ {
		thr = append(thr, int64(1)<<uint(c))
		idx = append(idx, int64(b.svaRows+c))
	}
	b.thresholds[0] = thr
	b.indices[0] = idx
	for i := 1; i < b.threads; i++ {
		b.thresholds[i] = nil
		b.indices[i] = nil
	}
	for i := range b.cursor {
		b.cursor[i] = 0
	}
	b.bootstrapped = true
}

// Threshold returns the head of tid's svat list (∞ when exhausted).
func (b *balancer) Threshold(tid int) int64 {
	if b.cursor[tid] >= len(b.thresholds[tid]) {
		return InfThreshold
	}
	return b.thresholds[tid][b.cursor[tid]]
}

// Index returns the head of tid's svai list.
func (b *balancer) Index(tid int) int64 {
	if b.cursor[tid] >= len(b.indices[tid]) {
		return -1
	}
	return b.indices[tid][b.cursor[tid]]
}

// Advance pops the heads of both lists.
func (b *balancer) Advance(tid int) {
	if b.cursor[tid] < len(b.thresholds[tid]) {
		b.cursor[tid]++
	}
}

// Plan is the central predictor component (executed via the lb_plan
// intrinsic by the main thread at invocation end, after all commits and
// recovery acknowledgments). It reads the work array and next-generation
// validity from simulated memory, fills invalid rows from bootstrap
// candidates, installs the next invocation's svat/svai lists, flips the
// SVA generation, and clears the stale generation. It returns a latency
// in cycles proportional to the memory traffic performed.
func (m *Machine) Plan() (int, error) {
	b := m.lb
	mem := m.Mem
	memOps := 0

	works := make([]int64, m.NThreads)
	var total int64
	for i := range works {
		v, err := mem.Load(m.WorkAddr(i))
		if err != nil {
			return 0, err
		}
		works[i] = v
		total += v
		memOps++
	}
	m.WorkHistory = append(m.WorkHistory, works)

	misspec := m.resteeredThisInvo
	m.Stats.Invocations++
	if misspec {
		m.Stats.MisspecInvocations++
		m.resteeredThisInvo = false
	}
	// A new invocation's conflict log starts empty.
	clear(m.invocationWrites)

	rowW := m.rowWords()
	nextBase := m.svaBase[1-m.svaGen]
	posOff := int64(m.SVAWidth) + rowPosOff
	writerOff := int64(m.SVAWidth) + rowWriterOff
	validOff := int64(m.SVAWidth) + rowValidOff

	// Fill still-invalid next-generation rows from bootstrap candidates.
	// Chosen candidate positions must increase with the row index: a row
	// behind its predecessor would start a chunk inside an earlier chunk
	// (duplicated work, guaranteed squash).
	if b.bootstrapped {
		usedCand := make(map[int]bool)
		lastPos := int64(0)
		for k := 1; k < m.NThreads; k++ {
			row := int64(k - 1)
			validAddr := nextBase + row*rowW + validOff
			if mem.MustLoad(validAddr) != 0 {
				continue
			}
			boundary := total * int64(k) / int64(m.NThreads)
			if boundary <= 0 {
				continue
			}
			best, bestDist := -1, int64(-1)
			for c := 0; c < maxCandidates; c++ {
				if usedCand[c] {
					continue
				}
				candValid := m.candBase + int64(c)*rowW + validOff
				if mem.MustLoad(candValid) == 0 {
					continue
				}
				work := int64(1) << uint(c)
				if work <= lastPos {
					continue
				}
				dist := work - boundary
				if dist < 0 {
					dist = -dist
				}
				if best == -1 || dist < bestDist {
					best, bestDist = c, dist
				}
				memOps++
			}
			if best == -1 {
				continue
			}
			usedCand[best] = true
			lastPos = int64(1) << uint(best)
			src := m.candBase + int64(best)*rowW
			// Copy values plus the position/writer note.
			for j := int64(0); j < int64(m.SVAWidth)+2; j++ {
				mem.MustStore(nextBase+row*rowW+j, mem.MustLoad(src+j))
				memOps += 2
			}
			mem.MustStore(validAddr, 1)
			memOps++
		}
	}

	// Reconstruct next-invocation chunk starts from the freshly
	// memoized rows: row k was captured by thread `writer` after
	// `localPos` completed local iterations, i.e. at global position
	// prefix(writer) + localPos, where prefix comes from the *measured*
	// work array. Valid threads form a prefix of the thread order and
	// the last valid thread runs to the loop end, so the measured
	// prefix sums are the exact global positions of every committed
	// writer this invocation (squashed and idle threads report zero and
	// write nothing).
	prefix := make([]int64, m.NThreads)
	for i := 1; i < m.NThreads; i++ {
		prefix[i] = prefix[i-1] + works[i-1]
	}
	startsNext := make([]int64, m.NThreads)
	for k := 1; k < m.NThreads; k++ {
		row := int64(k - 1)
		if mem.MustLoad(nextBase+row*rowW+validOff) == 0 {
			startsNext[k] = -1
			memOps++
			continue
		}
		writer := mem.MustLoad(nextBase + row*rowW + writerOff)
		local := mem.MustLoad(nextBase + row*rowW + posOff)
		base := int64(0)
		if writer >= 0 && writer < int64(len(prefix)) {
			base = prefix[writer]
		}
		startsNext[k] = base + local
		memOps += 3
	}

	// Install the next invocation's memoization plan from the measured
	// total (assumption 1 of the paper: the next invocation performs
	// the same total work).
	planTotal := total
	b.prevTotal = total
	if total == 0 {
		b.installBootstrap()
	} else {
		b.bootstrapped = false
		for i := 0; i < b.threads; i++ {
			b.thresholds[i] = nil
			b.indices[i] = nil
			b.cursor[i] = 0
		}
		switch b.scheme {
		case PaperIntervals:
			prefix := int64(0)
			i := 0
			for k := 1; k < m.NThreads; k++ {
				boundary := total * int64(k) / int64(m.NThreads)
				if boundary <= 0 {
					continue
				}
				// Find the thread whose interval (prefix_i, prefix_i+w_i]
				// contains the boundary.
				for i < b.threads-1 && boundary > prefix+works[i] {
					prefix += works[i]
					i++
				}
				local := boundary - prefix
				if local <= 0 {
					continue
				}
				b.thresholds[i] = append(b.thresholds[i], local)
				b.indices[i] = append(b.indices[i], int64(k-1))
			}
		default: // BalancedChunks (adaptive position-based planning)
			// Every running thread receives an entry for every boundary
			// beyond its own start, at a threshold relative to that
			// start. In the common case a thread stops at its successor's
			// start right after firing its first entry; the remaining
			// entries fire only when the thread overruns because a later
			// thread mis-speculated — re-memoizing the squashed rows at
			// their correct positions (self-healing). Squashed threads'
			// own writes are discarded with their buffers, so each row
			// commits at most once per invocation.
			for k := 1; k < m.NThreads; k++ {
				boundary := planTotal * int64(k) / int64(m.NThreads)
				if boundary <= 0 {
					continue
				}
				for j := 0; j < m.NThreads; j++ {
					start := startsNext[j]
					if j == 0 {
						start = 0
					}
					if start < 0 || start >= boundary {
						continue
					}
					b.thresholds[j] = append(b.thresholds[j], boundary-start)
					b.indices[j] = append(b.indices[j], int64(k-1))
				}
			}
		}
	}
	// Flip generations: the freshly memoized rows become current; the
	// old current generation is cleared for the next round of
	// memoization. Candidate valid flags are cleared too.
	m.svaGen = 1 - m.svaGen
	stale := m.svaBase[1-m.svaGen]
	for r := int64(0); r < int64(maxInt(m.svaRows, 1)); r++ {
		mem.MustStore(stale+r*rowW+validOff, 0)
		memOps++
	}
	for c := int64(0); c < maxCandidates; c++ {
		mem.MustStore(m.candBase+c*rowW+validOff, 0)
		memOps++
	}
	// Reset the work array so threads that do not run next invocation
	// (or are squashed before reporting) contribute zero.
	for i := 0; i < m.NThreads; i++ {
		mem.MustStore(m.WorkAddr(i), 0)
		memOps++
	}

	lat := 20 + 2*memOps
	return lat, nil
}

// SetPlanScheme selects the boundary-assignment scheme for subsequent
// Plan calls (BalancedChunks by default).
func (m *Machine) SetPlanScheme(s PlanScheme) { m.lb.scheme = s }

// PlanState exposes the balancer lists for tests and diagnostics.
func (m *Machine) PlanState(tid int) (svat, svai []int64, err error) {
	if tid < 0 || tid >= m.NThreads {
		return nil, nil, fmt.Errorf("rt: bad tid %d", tid)
	}
	return append([]int64(nil), m.lb.thresholds[tid]...),
		append([]int64(nil), m.lb.indices[tid]...), nil
}

// LBThreshold, LBIndex and LBAdvance are the intrinsic entry points.
func (m *Machine) LBThreshold(tid int) int64 { return m.lb.Threshold(tid) }

// LBIndex returns the head of tid's svai list (-1 when exhausted).
func (m *Machine) LBIndex(tid int) int64 { return m.lb.Index(tid) }

// LBAdvance pops tid's svat/svai heads.
func (m *Machine) LBAdvance(tid int) { m.lb.Advance(tid) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
