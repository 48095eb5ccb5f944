package spice

// WithSeams returns cfg with the two values only tests set: the
// speculative iteration cap (maxSpec) and the adaptive probe interval
// (probeEvery). It lets the external test package reach capped rounds
// and probes within a few invocations; zero keeps either derivation.
func WithSeams(cfg Config, maxSpec int64, probeEvery int) Config {
	cfg.maxSpec, cfg.probeEvery = maxSpec, probeEvery
	return cfg
}

// CheckConservation and StatsLine are the matrix's accounting assertion
// and repeatable-counter line (matrix_test.go).
var CheckConservation, StatsLine = checkConservation, statsLine
