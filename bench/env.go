package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is recorded with every result so a number is never read
// without the hardware it was measured on.
type hostInfo struct {
	Cores    int    `json:"cores"`
	MaxProcs int    `json:"maxprocs"`
	Width    int    `json:"width"`
	CPU      string `json:"cpu"`
	Go       string `json:"go"`
}

func host() hostInfo {
	return hostInfo{
		Cores:    runtime.NumCPU(),
		MaxProcs: runtime.GOMAXPROCS(0),
		Width:    targetWidth(),
		CPU:      cpuModel(),
		Go:       runtime.Version(),
	}
}

// targetWidth is W = clamp(nproc, 2, 4): the width every wN series
// runs at. On one core it stays 2, so the speculative machinery is
// still exercised; the speed-up is then flagged as not comparable.
func targetWidth() int {
	return min(max(runtime.NumCPU(), 2), 4)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads VmHWM (the resident-set high-water mark) of a process
// from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in process status")
}
