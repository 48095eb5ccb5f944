package ir

// Sig describes an intrinsic's call signature: its argument count
// (NArgs < 0 means variadic) and whether it produces a result.
//
// Intrinsics are the IR's window onto the modelled hardware and the Spice
// runtime: inter-core communication, the speculated-values array (SVA),
// speculative-state control (enter/commit/discard), the remote resteer
// mechanism (Section 3), the load-balancing predictor state
// (Section 4, Algorithm 2) and profiling hooks (Section 6).
type Sig struct {
	NArgs     int
	HasResult bool
}

// intrinsics is the registry of runtime intrinsics known to the verifier
// and implemented by the interpreter.
var intrinsics = map[string]Sig{
	// Memory management and debugging.
	"alloc": {NArgs: 1, HasResult: true}, // alloc(nwords) -> base address
	"print": {NArgs: 1, HasResult: false},

	// Thread identity.
	"tid":      {NArgs: 0, HasResult: true},
	"nthreads": {NArgs: 0, HasResult: true},

	// Inter-core communication (synchronized queues; the dashed lines in
	// the paper's Figures 2-5 and the send/receive in Figure 4).
	"send":  {NArgs: 3, HasResult: false}, // send(to, tag, value)
	"recv":  {NArgs: 1, HasResult: true},  // recv(tag) -> value, blocks
	"flush": {NArgs: 1, HasResult: false}, // drop queued messages with tag

	// Speculated values array (SVA). Row i holds the predicted live-ins
	// that initialize speculative thread i+1.
	"sva_read":      {NArgs: 2, HasResult: true},  // sva_read(row, idx)
	"sva_write":     {NArgs: 3, HasResult: false}, // sva_write(row, idx, val)
	"sva_valid":     {NArgs: 1, HasResult: true},  // sva_valid(row) -> 0/1
	"sva_set_valid": {NArgs: 2, HasResult: false}, // sva_set_valid(row, 0/1)
	"sva_note":      {NArgs: 2, HasResult: false}, // sva_note(row, localWork): record position+writer

	// Load-balancing value predictor state (Algorithm 2): per-thread svat
	// threshold list, svai index list, global work array, and the central
	// planning step run by the main thread at invocation end.
	"lb_threshold": {NArgs: 0, HasResult: true}, // head of my svat (maxint when exhausted)
	"lb_index":     {NArgs: 0, HasResult: true}, // head of my svai
	"lb_advance":   {NArgs: 0, HasResult: false},
	"lb_report":    {NArgs: 1, HasResult: false}, // lb_report(my work)
	"lb_plan":      {NArgs: 0, HasResult: false}, // main: plan next invocation

	// Speculative state control (Section 3 "Speculative State").
	"spec_enter":     {NArgs: 0, HasResult: false},
	"spec_commit":    {NArgs: 1, HasResult: false}, // main commits thread t's buffer
	"spec_discard":   {NArgs: 0, HasResult: false}, // thread drops own buffer
	"spec_conflicts": {NArgs: 1, HasResult: true},  // conflict count for thread t

	// Remote resteer (Section 3 "Remote resteer"): redirect another
	// thread to its registered recovery block.
	"set_recovery": {NArgs: 1, HasResult: false}, // set_recovery(@block)
	"resteer":      {NArgs: 1, HasResult: false}, // resteer(tid)

	// Simulation control and instruction-region accounting (used for the
	// Table 2 loop-hotness measurement).
	"halt":         {NArgs: 0, HasResult: false},
	"region_enter": {NArgs: 1, HasResult: false},
	"region_exit":  {NArgs: 1, HasResult: false},

	// Native workload hook: invokes a Go callback registered with the
	// runtime machine. Workload harnesses use it to mutate program data
	// between loop invocations (standing in for the rest of the
	// application around the measured loop).
	"hook": {NArgs: 1, HasResult: false},

	// Value profiler hooks (Section 6.1): invocation boundary and the
	// per-iteration live-in record. prof_record is variadic: loop id then
	// the live-in values for this iteration.
	"prof_invoke": {NArgs: 1, HasResult: false},
	"prof_record": {NArgs: -1, HasResult: false},
}

// IntrinsicSig returns the signature of a registered intrinsic.
func IntrinsicSig(name string) (Sig, bool) {
	s, ok := intrinsics[name]
	return s, ok
}
