package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is a parsed /metrics page: series (name plus its label
// set, exactly as printed) to value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format as spiced
// writes it: comment lines skipped, `name{labels} value` otherwise.
func parseProm(text string) (promSample, error) {
	out := make(promSample)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

// sum adds every series of the metric, whatever its labels.
func (p promSample) sum(name string) float64 {
	var s float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// tenantPrefix sums a per-tenant metric over the tenants whose name
// starts with prefix, and counts them.
func (p promSample) tenantPrefix(name, prefix string) (sum float64, n int) {
	want := name + `{tenant="` + prefix
	for k, v := range p {
		if strings.HasPrefix(k, want) {
			sum += v
			n++
		}
	}
	return sum, n
}

// scrape fetches and parses /metrics.
func scrape(hc *http.Client, base string) (promSample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(string(body))
}
