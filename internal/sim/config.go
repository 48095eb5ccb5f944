// Package sim models the timing of the evaluation machine: a chip
// multiprocessor with private L1/L2 caches, a shared L3, a snoop-based
// write-invalidate coherence protocol and the latencies of Table 1 of
// the paper. It provides per-operation costs and a cache hierarchy that
// returns the latency of each memory access while tracking hit/miss and
// coherence statistics.
//
// Fidelity note: the paper simulated 6-issue Itanium 2
// cores in the Liberty simulation environment. This model executes one
// operation at a time per core with fixed op latencies and a detailed
// memory hierarchy. Both the single-threaded baseline and all Spice
// configurations run on the same model, so relative speedups — the
// quantity the paper reports — are preserved.
package sim

import "fmt"

// Config describes the modelled machine. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	Cores int

	// Cache geometry: sizes in bytes, line sizes in bytes.
	L1Size, L1Assoc, L1Line int
	L2Size, L2Assoc, L2Line int
	L3Size, L3Assoc, L3Line int

	// Access latencies in cycles.
	L1Lat, L2Lat, L3Lat, MemLat int

	// BusLat is the added cost of a bus transaction (cache-to-cache
	// transfer or invalidation broadcast).
	BusLat int

	// CommLat is the core-to-core latency of the synchronized queues
	// used for live-in/live-out communication (produce-to-consume,
	// through the shared L3 and bus).
	CommLat int

	// Op latencies.
	ALULat, MulLat, DivLat, BranchLat int

	// IssueWidth models the 6-issue Itanium 2 core's ability to issue
	// several simple operations per cycle: up to IssueWidth consecutive
	// single-cycle ALU operations (const/move/arith/compare) are charged
	// one cycle as a group. Loads, stores, branches, multiplies and
	// calls end a group. Dependencies within a group are ignored — an
	// idealization applied identically to the sequential baseline and
	// the Spice binaries.
	IssueWidth int

	// Runtime operation costs.
	SpecEnterLat  int // entering speculative mode
	CommitBaseLat int // committing a speculative buffer (base)
	CommitWordLat int // per buffered word drained on commit
	ResteerLat    int // remote resteer delivery (pipeline redirect)
}

// DefaultConfig reproduces Table 1 of the paper: 4-core Itanium 2 CMP,
// 16KB 4-way 64B-line L1 (1 cycle), 256KB 8-way 128B-line L2 (7 cycles,
// middle of the 5/7/9 range), 1.5MB 12-way 128B-line shared L3
// (12 cycles), 141-cycle main memory, and a 16-byte 1-cycle pipelined
// split-transaction bus.
func DefaultConfig() Config {
	return Config{
		Cores:  4,
		L1Size: 16 << 10, L1Assoc: 4, L1Line: 64,
		L2Size: 256 << 10, L2Assoc: 8, L2Line: 128,
		L3Size: 1536 << 10, L3Assoc: 12, L3Line: 128,
		L1Lat: 1, L2Lat: 7, L3Lat: 12, MemLat: 141,
		BusLat:  4,
		CommLat: 20,
		ALULat:  1, MulLat: 3, DivLat: 18, BranchLat: 1,
		IssueWidth:    4,
		SpecEnterLat:  4,
		CommitBaseLat: 10,
		CommitWordLat: 2,
		ResteerLat:    24,
	}
}

// Validate reports configuration problems (non-power-of-two geometry,
// missing latencies).
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: need at least one core, have %d", c.Cores)
	}
	check := func(name string, size, assoc, line int) error {
		if size <= 0 || assoc <= 0 || line <= 0 {
			return fmt.Errorf("sim: %s cache geometry must be positive", name)
		}
		if line&(line-1) != 0 {
			return fmt.Errorf("sim: %s line size %d not a power of two", name, line)
		}
		if size%(assoc*line) != 0 {
			return fmt.Errorf("sim: %s size %d not divisible by assoc*line", name, size)
		}
		return nil
	}
	if err := check("L1", c.L1Size, c.L1Assoc, c.L1Line); err != nil {
		return err
	}
	if err := check("L2", c.L2Size, c.L2Assoc, c.L2Line); err != nil {
		return err
	}
	if err := check("L3", c.L3Size, c.L3Assoc, c.L3Line); err != nil {
		return err
	}
	if c.L1Lat <= 0 || c.L2Lat <= 0 || c.L3Lat <= 0 || c.MemLat <= 0 {
		return fmt.Errorf("sim: cache latencies must be positive")
	}
	return nil
}

// String renders the configuration as a Table 1-style listing.
func (c Config) String() string {
	return fmt.Sprintf(
		"Cores                     %d\n"+
			"L1D Cache                 %d cycle, %d KB, %d-way, %dB lines\n"+
			"L2 Cache                  %d cycles, %d KB, %d-way, %dB lines\n"+
			"Shared L3 Cache           %d cycles, %.1f MB, %d-way, %dB lines\n"+
			"Main Memory Latency       %d cycles\n"+
			"Coherence                 snoop-based, write-invalidate\n"+
			"Bus                       %d-cycle transactions, split-transaction\n"+
			"Core-to-core queue        %d cycles",
		c.Cores,
		c.L1Lat, c.L1Size>>10, c.L1Assoc, c.L1Line,
		c.L2Lat, c.L2Size>>10, c.L2Assoc, c.L2Line,
		c.L3Lat, float64(c.L3Size)/(1<<20), c.L3Assoc, c.L3Line,
		c.MemLat,
		c.BusLat,
		c.CommLat)
}
