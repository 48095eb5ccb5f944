// Command spiceload drives a spiced daemon with open-loop load: jobs
// arrive on a fixed schedule regardless of how fast the server answers
// (the arrival process does not slow down when the server queues), so
// overload actually overloads and the admission layer's 429 shedding
// becomes visible. The tenant mix is weighted — each spec names a
// tenant, a kernel, a churn level and an arrival weight — which is how
// a run puts a well-predicting tenant and a misspeculating one on the
// same daemon and watches their budgets diverge in /metrics.
//
// Example (two tenants with opposite misspeculation profiles):
//
//	spiceload -url http://localhost:8080 -rate 50 -duration 10s \
//	  -tenants good=sumlist:8:3,bad=hostile:4000:1 -size 20000 -invocations 4
//
// The report ends with a single machine-readable line:
//
//	SUMMARY total=500 ok=480 http429=20 errors=0 rate2xx=0.960 throughput=48.0 p50ms=3.2 p90ms=8.1 p99ms=20.4 retried=0 exhausted=0
//
// With -retries N, a job answered 429/503 (or failing in transport) is
// retried up to N times with jittered exponential backoff from
// -backoff, floored by the server's Retry-After hint; the final report
// counts retry attempts and jobs whose budget ran dry.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
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

func parseTenants(s string) ([]tenantSpec, error) {
	var specs []tenantSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("tenant spec %q: want name=kernel:churn:weight", part)
		}
		fields := strings.Split(rest, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("tenant spec %q: want name=kernel:churn:weight", part)
		}
		churn, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("tenant spec %q: churn: %v", part, err)
		}
		weight, err := strconv.Atoi(fields[2])
		if err != nil || weight < 1 {
			return nil, fmt.Errorf("tenant spec %q: weight must be a positive integer", part)
		}
		specs = append(specs, tenantSpec{name: name, kernel: fields[0], churn: churn, weight: weight})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty tenant mix")
	}
	return specs, nil
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
	dropped   int // arrivals skipped because max-inflight client slots were busy
	retried   int // individual retry attempts after a 429/503 or transport error
	exhausted int // jobs that still failed after spending their whole retry budget
	lat       []time.Duration
	perTenant map[string]*tenantTally
}

type tenantTally struct{ total, ok, shed int }

func (ta *tally) record(tenant string, code int, d time.Duration, err error) {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	ta.total++
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

// retryable reports whether an attempt's outcome is worth another try:
// transport errors and the two backpressure statuses (429 and 503),
// which the server tags with Retry-After.
func retryable(code int, err error) bool {
	return err != nil || code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// backoffWait computes the wait before retry attempt n (0-based):
// jittered exponential backoff from base, overridden upward by the
// server's Retry-After hint when one was sent. The jitter (a uniform
// 0.5–1.5 factor) decorrelates the retry herd an open-loop burst of
// shed jobs would otherwise form.
func backoffWait(base time.Duration, attempt int, retryAfter string) time.Duration {
	d := base << attempt
	const maxWait = 5 * time.Second
	if d > maxWait || d <= 0 {
		d = maxWait
	}
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		if ra := time.Duration(secs) * time.Second; ra > d {
			d = ra
		}
	}
	return d
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// arrivalInterval is the open loop's tick for a rate in jobs/second. A
// rate that is not a positive finite number is refused: dividing by it
// gives no schedule (0 used to become a 1 µs ticker, ~99 000 arrivals/s).
// A rate beyond the clock's resolution ticks every nanosecond.
func arrivalInterval(rate float64) (time.Duration, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return 0, fmt.Errorf("-rate %v: want a positive, finite number of jobs/second", rate)
	}
	return max(time.Duration(float64(time.Second)/rate), 1), nil
}

// checkMaxInflight refuses a client-side concurrency bound below 1: 0
// made an unbuffered slot channel whose non-blocking send dropped every
// arrival, and a negative one panicked in make.
func checkMaxInflight(n int) error {
	if n < 1 {
		return fmt.Errorf("-max-inflight %d: want at least 1 concurrent request", n)
	}
	return nil
}

// checkBackoff refuses a base retry backoff that is not positive:
// backoffWait's overflow guard reads a zero or negative wait as
// overflowed, so -backoff 0 slept 2.5–7.5 s before every retry instead
// of retrying at once.
func checkBackoff(base time.Duration) error {
	if base <= 0 {
		return fmt.Errorf("-backoff %v: want a positive base wait", base)
	}
	return nil
}

func main() {
	var (
		url         = flag.String("url", "http://localhost:8080", "spiced base URL")
		rate        = flag.Float64("rate", 20, "arrival rate, jobs/second (open loop)")
		duration    = flag.Duration("duration", 10*time.Second, "load duration")
		tenants     = flag.String("tenants", "good=sumlist:8:3,bad=hostile:4000:1", "tenant mix: name=kernel:churn:weight[,...]")
		size        = flag.Int64("size", 20_000, "structure node count per job")
		invocations = flag.Int64("invocations", 4, "loop invocations per job")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		maxInflight = flag.Int("max-inflight", 256, "client-side concurrent request bound")
		seed        = flag.Int64("seed", 1, "tenant-mix RNG seed")
		retries     = flag.Int("retries", 0, "retries per job after a 429/503 or transport error (0 disables)")
		backoff     = flag.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubled per attempt, jittered, floored by Retry-After)")
	)
	flag.Parse()

	specs, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spiceload: %v\n", err)
		os.Exit(2)
	}
	interval, err := arrivalInterval(*rate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spiceload: %v\n", err)
		os.Exit(2)
	}
	if err := checkMaxInflight(*maxInflight); err != nil {
		fmt.Fprintf(os.Stderr, "spiceload: %v\n", err)
		os.Exit(2)
	}
	if err := checkBackoff(*backoff); err != nil {
		fmt.Fprintf(os.Stderr, "spiceload: %v\n", err)
		os.Exit(2)
	}
	totalWeight := 0
	for _, sp := range specs {
		totalWeight += sp.weight
	}

	client := &http.Client{Timeout: *timeout}
	rng := rand.New(rand.NewSource(*seed))
	ta := &tally{perTenant: make(map[string]*tenantTally)}
	slots := make(chan struct{}, *maxInflight)
	var wg sync.WaitGroup

	tick := time.NewTicker(interval)
	defer tick.Stop()
	deadline := time.After(*duration)
	started := time.Now()

loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-tick.C:
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
			go func(sp tenantSpec) {
				defer wg.Done()
				defer func() { <-slots }()
				body, _ := json.Marshal(map[string]any{
					"tenant":      sp.name,
					"kernel":      sp.kernel,
					"churn":       sp.churn,
					"size":        *size,
					"invocations": *invocations,
				})
				var (
					code       int
					d          time.Duration
					err        error
					retryAfter string
					tried      int
				)
				for attempt := 0; ; attempt++ {
					t0 := time.Now()
					var resp *http.Response
					resp, err = client.Post(*url+"/v1/run", "application/json", bytes.NewReader(body))
					d = time.Since(t0)
					code = 0
					retryAfter = ""
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						retryAfter = resp.Header.Get("Retry-After")
						resp.Body.Close()
						code = resp.StatusCode
					}
					if !retryable(code, err) || attempt >= *retries {
						break
					}
					tried++
					time.Sleep(backoffWait(*backoff, attempt, retryAfter))
				}
				ta.record(sp.name, code, d, err)
				if tried > 0 {
					ta.mu.Lock()
					ta.retried += tried
					if retryable(code, err) {
						ta.exhausted++
					}
					ta.mu.Unlock()
				}
			}(sp)
		}
	}
	wg.Wait()
	elapsed := time.Since(started)

	ta.mu.Lock()
	defer ta.mu.Unlock()
	sort.Slice(ta.lat, func(i, j int) bool { return ta.lat[i] < ta.lat[j] })
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
	if *retries > 0 {
		fmt.Printf("  retries    attempts=%d exhausted=%d (budget %d per job, base backoff %s)\n",
			ta.retried, ta.exhausted, *retries, *backoff)
	}
	fmt.Printf("  throughput %.1f ok/s   2xx rate %.3f\n", throughput, rate2xx)
	fmt.Printf("  latency    p50=%.1fms p90=%.1fms p99=%.1fms max=%.1fms\n",
		ms(percentile(ta.lat, 0.50)), ms(percentile(ta.lat, 0.90)),
		ms(percentile(ta.lat, 0.99)), ms(percentile(ta.lat, 1.0)))
	names := make([]string, 0, len(ta.perTenant))
	for name := range ta.perTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tt := ta.perTenant[name]
		fmt.Printf("  tenant %-12s total=%d ok=%d shed429=%d\n", name, tt.total, tt.ok, tt.shed)
	}
	fmt.Printf("SUMMARY total=%d ok=%d http429=%d errors=%d rate2xx=%.3f throughput=%.1f p50ms=%.1f p90ms=%.1f p99ms=%.1f retried=%d exhausted=%d\n",
		ta.total, ta.ok, ta.http429, ta.errors, rate2xx, throughput,
		ms(percentile(ta.lat, 0.50)), ms(percentile(ta.lat, 0.90)), ms(percentile(ta.lat, 0.99)),
		ta.retried, ta.exhausted)
}
