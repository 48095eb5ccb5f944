// Command spiced serves the spice runtime to multiple tenants over
// HTTP: JSON jobs naming registered native workload kernels, a bounded
// admission queue (full queue answers 429 + Retry-After), per-tenant
// concurrency caps, an adaptive pool session per structure whose
// confidence gate narrows a tenant's speculation down to width 1 when
// it keeps missing, and Prometheus-style /metrics.
// SIGINT/SIGTERM drains gracefully: in-flight jobs finish, new ones are
// rejected with 503.
//
// Endpoints:
//
//	POST /v1/run      run a job synchronously
//	POST /v1/submit   enqueue a job, answer 202 + id
//	GET  /v1/jobs/:id poll an async job (result delivered once)
//	GET  /v1/kernels  list registered kernels
//	GET  /metrics     Prometheus text exposition
//	GET  /healthz     200 serving / 503 draining or wedged
//
// Flags:
//
//	-listen ADDR          listen address (default :8080)
//	-max-width N          widest speculation per invocation (default max(GOMAXPROCS, 2))
//	-job-timeout D        per-job execution bound (default 30s); the
//	                      watchdog force-cancels a job D/15 past it
//	-drain-timeout D      graceful drain bound on SIGTERM (default 30s)
//	-chaos SPEC           fault-injection schedule (testing only)
//
// Every other bound (queue depth, tenant and async caps, table sizes)
// is a constant of internal/server.
//
// Example:
//
//	spiced -listen :8080 &
//	curl -s localhost:8080/v1/run -d '{"tenant":"a","kernel":"sumlist","size":100000,"invocations":4}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spice/internal/faults"
	"spice/internal/server"
)

func main() {
	var (
		listen     = flag.String("listen", ":8080", "listen address")
		maxWidth   = flag.Int("max-width", 0, "widest speculation per invocation (0 = max(GOMAXPROCS, 2))")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job execution bound; the watchdog's grace is a fifteenth of it (0 = 30s)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound on SIGTERM")
		chaos      = flag.String("chaos", "", "fault-injection schedule, site:match:kind[:dur] comma list (testing only)")
	)
	flag.Parse()

	plane, err := faults.Parse(*chaos)
	if err != nil {
		log.Fatalf("spiced: -chaos: %v", err)
	}
	if plane != nil {
		log.Printf("spiced: FAULT INJECTION ARMED: %s", plane)
	}

	s, err := server.New(server.Config{
		MaxWidth:   *maxWidth,
		JobTimeout: *jobTimeout,
		Faults:     plane,
	})
	if err != nil {
		log.Fatalf("spiced: %v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("spiced: listen %s: %v", *listen, err)
	}
	// A client that never finishes its headers must not hold a connection
	// (and its goroutine) forever.
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("spiced: serve: %v", err)
		}
	}()
	fmt.Printf("spiced: serving on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	log.Printf("spiced: %s: draining (bound %s)", got, *drainWait)

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Drain the engine first — in-flight jobs finish, new admissions get
	// 503 — then close the listener once nothing is left to answer.
	if err := s.Drain(ctx); err != nil {
		log.Printf("spiced: drain: %v", err)
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("spiced: shutdown: %v", err)
	}
	log.Printf("spiced: drained, exiting")
}
