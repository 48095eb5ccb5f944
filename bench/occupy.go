package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// While a run measures, every processor is kept from idling by an
// occupier: a child process pinned to it that spins at SCHED_IDLE
// priority, so it runs only when nothing else wants the processor and
// any other thread preempts it at once. It is the benchmark's idle=poll.
//
// The reason is the VM, not the program. When a KVM guest's processor
// halts, the host takes it away and marks it preempted; the guest
// scheduler does not place a waking thread on a preempted processor, so
// the worker a parallel loop wakes lands on the caller's processor, the
// chunks run one after the other, and width-2 ops take width-1 time —
// for milliseconds or for minutes, depending on how busy the host is
// (speedup_vs_seq@doall_hot read 0.39 for nine runs in a row, then 0.69;
// two busy processes got half a processor each while the other idled).
// With the occupiers the same runs read 0.73-0.77. A processor that
// never halts is never taken away, and a processor running only a
// SCHED_IDLE thread counts as idle to the scheduler's wake-up path.
//
// startOccupiers returns the function that kills and reaps them.
// Occupiers are an aid, not a requirement: where one cannot start (no
// SCHED_IDLE, not Linux semantics), the run goes on without and says so.
func startOccupiers() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return func() {}, err
	}
	var cmds []*exec.Cmd
	stop = func() {
		for _, c := range cmds {
			_ = c.Process.Kill()
			_ = c.Wait()
		}
		cmds = nil
	}
	for _, cpu := range allowedCPUs() {
		c := exec.Command(self, "-occupy-cpu", strconv.Itoa(cpu))
		c.Env = append(os.Environ(), "GOMAXPROCS=1")
		c.Stderr = os.Stderr
		// If the benchmark itself is killed outright the child must not
		// outlive it.
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			stop()
			return func() {}, err
		}
		cmds = append(cmds, c)
	}
	return stop, nil
}

// cpuMask is a sched_setaffinity mask of up to 1024 processors.
type cpuMask [16]uint64

// allowedCPUs lists the processors this process may run on.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// occupy is the child: it pins its one busy thread to the processor,
// drops it to SCHED_IDLE and spins until it is killed.
func occupy(cpu int) {
	runtime.LockOSThread()
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		fmt.Fprintf(os.Stderr, "bench: occupier %d: sched_setaffinity: %v\n", cpu, e)
		os.Exit(1)
	}
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		fmt.Fprintf(os.Stderr, "bench: occupier %d: sched_setscheduler(SCHED_IDLE): %v\n", cpu, e)
		os.Exit(1)
	}
	for {
	}
}
