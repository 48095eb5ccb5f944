// Command spiceload drives a spiced daemon with open-loop load: jobs
// arrive on a fixed schedule regardless of how fast the server answers
// (the arrival process does not slow down when the server queues), so
// overload actually overloads and the admission layer's 429 shedding
// becomes visible. The tenant mix is weighted — each spec names a
// tenant, a kernel, a churn level and an arrival weight — which is how
// a run puts a well-predicting tenant and a misspeculating one on the
// same daemon and watches their budgets (the width each one's session
// runs at) diverge in /metrics.
//
// Example (two tenants with opposite misspeculation profiles):
//
//	spiceload -url http://localhost:8080 -rate 50 -duration 10s \
//	  -tenants good=sumlist:8:3,bad=hostile:4000:1 -size 20000 -invocations 4
//
// Arrival k is due at start + k/rate. Every job is sent once, with a
// 30 s client timeout, and timed from the instant it was due, so a
// stall of the generator itself shows in the latencies of the jobs it
// delayed; the report gives how late the sends ran. At most 256 jobs
// are in flight, and an arrival beyond that is dropped and counted. The
// tenant mix is drawn from a fixed seed, so two runs offer the same
// sequence.
// The report ends with a single machine-readable line:
//
//	SUMMARY total=500 ok=480 http429=20 errors=0 rate2xx=0.960 throughput=48.0 p50ms=3.2 p90ms=8.1 p99ms=20.4
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"iter"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tenantSpec is one entry of the -tenants mix.
type tenantSpec struct {
	name   string
	kernel string
	churn  int
	weight int
}

// parseTenants reads the -tenants mix and returns it with its total
// weight. It refuses a spec spiced would answer 400 on every job (an
// empty tenant name or kernel, a negative churn) and a mix whose
// weights overflow an int when summed.
func parseTenants(s string) ([]tenantSpec, int, error) {
	var specs []tenantSpec
	total := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		fields := strings.Split(rest, ":")
		if !ok || name == "" || len(fields) != 3 || fields[0] == "" {
			return nil, 0, fmt.Errorf("tenant spec %q: want name=kernel:churn:weight", part)
		}
		churn, err := strconv.Atoi(fields[1])
		if err != nil || churn < 0 {
			return nil, 0, fmt.Errorf("tenant spec %q: churn must be a non-negative integer", part)
		}
		weight, err := strconv.Atoi(fields[2])
		if err != nil || weight < 1 {
			return nil, 0, fmt.Errorf("tenant spec %q: weight must be a positive integer", part)
		}
		if weight > math.MaxInt-total {
			return nil, 0, fmt.Errorf("tenant spec %q: the mix's weights sum past %d", part, math.MaxInt)
		}
		total += weight
		specs = append(specs, tenantSpec{name: name, kernel: fields[0], churn: churn, weight: weight})
	}
	if len(specs) == 0 {
		return nil, 0, fmt.Errorf("empty tenant mix")
	}
	return specs, total, nil
}

// pick draws a spec in proportion to weight.
func pick(rng *rand.Rand, specs []tenantSpec, total int) tenantSpec {
	n := rng.Intn(total)
	for _, sp := range specs {
		if n < sp.weight {
			return sp
		}
		n -= sp.weight
	}
	return specs[len(specs)-1]
}

// tally accumulates the run's outcomes.
type tally struct {
	mu        sync.Mutex
	total     int
	ok        int
	http429   int
	http5xx   int
	otherHTTP int
	errors    int
	dropped   int // arrivals skipped because every client slot was busy
	lat       []time.Duration
	late      []time.Duration // per send: how long after its due instant it went out
	perTenant map[string]*tenantTally
}

type tenantTally struct{ total, ok, shed int }

// record tallies one sent job: its outcome, how late it went out and
// its latency, both measured from its due instant.
func (ta *tally) record(tenant string, code int, late, d time.Duration, err error) {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	ta.total++
	ta.late = append(ta.late, late)
	tt := ta.perTenant[tenant]
	if tt == nil {
		tt = &tenantTally{}
		ta.perTenant[tenant] = tt
	}
	tt.total++
	switch {
	case err != nil:
		ta.errors++
	case code >= 200 && code < 300:
		ta.ok++
		tt.ok++
		ta.lat = append(ta.lat, d)
	case code == http.StatusTooManyRequests:
		ta.http429++
		tt.shed++
	case code >= 500:
		ta.http5xx++
	default:
		ta.otherHTTP++
	}
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// arrivalInterval is the open loop's spacing for a rate in jobs/second.
// A rate that is not a positive finite number is refused: dividing by it
// gives no schedule. A rate beyond the clock's resolution spaces the
// arrivals a nanosecond apart.
func arrivalInterval(rate float64) (time.Duration, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return 0, fmt.Errorf("-rate %v: want a positive, finite number of jobs/second", rate)
	}
	return max(time.Duration(float64(time.Second)/rate), 1), nil
}

// arrivals is the open loop's schedule: arrival k is due at start +
// k·interval, for every such instant before start + duration. The
// instants are fixed in advance, so a generator that falls behind still
// issues every arrival, late; a time.Ticker would drop the ticks it
// missed, and those arrivals would count as neither sent nor dropped.
func arrivals(start time.Time, interval, duration time.Duration) iter.Seq[time.Time] {
	return func(yield func(time.Time) bool) {
		for k := time.Duration(0); k*interval < duration; k++ {
			if !yield(start.Add(k * interval)) {
				return
			}
		}
	}
}

// The client's fixed settings: a per-request timeout, the bound on
// concurrent requests, and the seed of the tenant-mix draw.
const (
	requestTimeout = 30 * time.Second
	maxInflight    = 256
	mixSeed        = 1
)

func main() {
	var (
		url         = flag.String("url", "http://localhost:8080", "spiced base URL")
		rate        = flag.Float64("rate", 20, "arrival rate, jobs/second (open loop)")
		duration    = flag.Duration("duration", 10*time.Second, "load duration")
		tenants     = flag.String("tenants", "good=sumlist:8:3,bad=hostile:4000:1", "tenant mix: name=kernel:churn:weight[,...]")
		size        = flag.Int64("size", 20_000, "structure node count per job")
		invocations = flag.Int64("invocations", 4, "loop invocations per job")
	)
	flag.Parse()

	specs, totalWeight, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spiceload: %v\n", err)
		os.Exit(2)
	}
	interval, err := arrivalInterval(*rate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spiceload: %v\n", err)
		os.Exit(2)
	}

	client := &http.Client{Timeout: requestTimeout}
	rng := rand.New(rand.NewSource(mixSeed))
	ta := &tally{perTenant: make(map[string]*tenantTally)}
	slots := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup

	started := time.Now()
	for due := range arrivals(started, interval, *duration) {
		time.Sleep(time.Until(due))
		sp := pick(rng, specs, totalWeight)
		select {
		case slots <- struct{}{}:
		default:
			// Open loop: a saturated client does not queue arrivals, it
			// counts them as dropped so the offered rate stays honest.
			ta.mu.Lock()
			ta.dropped++
			ta.mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(sp tenantSpec, due time.Time) {
			defer wg.Done()
			defer func() { <-slots }()
			body, _ := json.Marshal(map[string]any{
				"tenant":      sp.name,
				"kernel":      sp.kernel,
				"churn":       sp.churn,
				"size":        *size,
				"invocations": *invocations,
			})
			late := time.Since(due)
			resp, err := client.Post(*url+"/v1/run", "application/json", bytes.NewReader(body))
			d := time.Since(due)
			code := 0
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				code = resp.StatusCode
			}
			ta.record(sp.name, code, late, d, err)
		}(sp, due)
	}
	wg.Wait()
	elapsed := time.Since(started)

	ta.mu.Lock()
	defer ta.mu.Unlock()
	slices.Sort(ta.lat)
	slices.Sort(ta.late)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rate2xx := 0.0
	if ta.total > 0 {
		rate2xx = float64(ta.ok) / float64(ta.total)
	}
	throughput := float64(ta.ok) / elapsed.Seconds()

	fmt.Printf("spiceload: %s for %s against %s\n", *tenants, elapsed.Round(time.Millisecond), *url)
	fmt.Printf("  arrivals   %d (dropped client-side: %d)\n", ta.total+ta.dropped, ta.dropped)
	fmt.Printf("  responses  2xx=%d 429=%d 5xx=%d other=%d errors=%d\n",
		ta.ok, ta.http429, ta.http5xx, ta.otherHTTP, ta.errors)
	fmt.Printf("  throughput %.1f ok/s   2xx rate %.3f\n", throughput, rate2xx)
	fmt.Printf("  latency    p50=%.1fms p90=%.1fms p99=%.1fms max=%.1fms\n",
		ms(percentile(ta.lat, 0.50)), ms(percentile(ta.lat, 0.90)),
		ms(percentile(ta.lat, 0.99)), ms(percentile(ta.lat, 1.0)))
	fmt.Printf("  generator  late p99=%.2fms max=%.2fms (send minus due, over %d sends)\n",
		ms(percentile(ta.late, 0.99)), ms(percentile(ta.late, 1.0)), len(ta.late))
	names := make([]string, 0, len(ta.perTenant))
	for name := range ta.perTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tt := ta.perTenant[name]
		fmt.Printf("  tenant %-12s total=%d ok=%d shed429=%d\n", name, tt.total, tt.ok, tt.shed)
	}
	fmt.Printf("SUMMARY total=%d ok=%d http429=%d errors=%d rate2xx=%.3f throughput=%.1f p50ms=%.1f p90ms=%.1f p99ms=%.1f\n",
		ta.total, ta.ok, ta.http429, ta.errors, rate2xx, throughput,
		ms(percentile(ta.lat, 0.50)), ms(percentile(ta.lat, 0.90)), ms(percentile(ta.lat, 0.99)))
}
