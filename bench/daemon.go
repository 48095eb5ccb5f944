package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one child spiced process. Every daemon is registered so an
// interrupt or a failure anywhere still drains and reaps it.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]struct{}{}
)

// startDaemon execs spiced on an ephemeral port, reads the address from
// its "serving on" line and waits until /healthz answers 200.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("no spiced binary (pass -spiced; bench/run.sh builds one)")
	}
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	// If the benchmark itself is killed outright the child must not
	// outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spiced: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	liveMu.Lock()
	live[d] = struct{}{}
	liveMu.Unlock()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "serving on "); ok {
				addr <- strings.TrimSpace(a)
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained
		d.err = cmd.Wait()
		close(d.done)
	}()

	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		d.forget()
		return nil, fmt.Errorf("spiced exited before serving: %v", d.err)
	case <-time.After(20 * time.Second):
		_ = d.stop()
		return nil, fmt.Errorf("spiced did not report its address")
	case <-ctx.Done():
		_ = d.stop()
		return nil, ctx.Err()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			_ = d.stop()
			return nil, fmt.Errorf("spiced at %s never became healthy", d.base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) forget() {
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
}

// stop drains the child with SIGTERM, kills it if the drain hangs, and
// returns once it has been reaped. It is safe to call twice.
func (d *daemon) stop() error {
	defer d.forget()
	select {
	case <-d.done:
		return nil
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		// spiced prints its address before it installs its signal
		// handler; a SIGTERM landing in between ends it by the signal's
		// default action. That is still our signal taking effect, not a
		// failed drain.
		var ee *exec.ExitError
		if errors.As(d.err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return d.err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("spiced ignored SIGTERM for 15 s and was killed")
	}
}

// stopAllDaemons is the interrupt path.
func stopAllDaemons() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		_ = d.stop()
	}
}
