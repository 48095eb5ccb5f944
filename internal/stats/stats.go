// Package stats provides the small statistical and reporting helpers
// used by the benchmark harness: geometric means, histogram binning and
// fixed-width text tables matching the paper's presentation style.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of positive values; it returns 0
// for an empty slice and panics on non-positive entries (a speedup of
// zero or below indicates a harness bug).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Imbalance returns max/mean of a positive work distribution: 1.0 is
// perfectly balanced. Zero-only input returns 1.
func Imbalance(work []int64) float64 {
	if len(work) == 0 {
		return 1
	}
	var sum, maxW int64
	for _, w := range work {
		sum += w
		if w > maxW {
			maxW = w
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(work))
	return float64(maxW) / mean
}

// Bin is one histogram bucket with an inclusive percentage range,
// matching the paper's Figure 8 predictability bins.
type Bin struct {
	Name   string
	Lo, Hi float64 // inclusive bounds, percentages
	Count  int
}

// PredictabilityBins returns the paper's four bins: low (1-25%),
// average (26-50%), good (51-75%), high (76-100%).
func PredictabilityBins() []Bin {
	return []Bin{
		{Name: "low", Lo: 1, Hi: 25},
		{Name: "average", Lo: 26, Hi: 50},
		{Name: "good", Lo: 51, Hi: 75},
		{Name: "high", Lo: 76, Hi: 100},
	}
}

// Classify adds each percentage to its bin; values below every bin (e.g.
// 0%) are dropped, mirroring the paper ("missing bars indicate that none
// of the invocations ... show predictability").
func Classify(bins []Bin, percents []float64) {
	for _, p := range percents {
		for i := range bins {
			if p >= bins[i].Lo && p <= bins[i].Hi {
				bins[i].Count++
				break
			}
		}
	}
}

// Table renders a fixed-width text table. Rows are printed in order;
// column widths adapt to content.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	if t.Header != nil {
		measure(t.Header)
	}
	for _, r := range t.Rows {
		measure(r)
	}
	var sb strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteString("\n")
	}
	if t.Header != nil {
		writeRow(t.Header)
		total := 0
		for _, w := range width {
			total += w
		}
		sb.WriteString(strings.Repeat("-", total+2*(cols-1)))
		sb.WriteString("\n")
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

// Speedup formats a multiplier both as NNx and the paper's percent form
// ("157%" meaning 2.57x).
func Speedup(x float64) string {
	return fmt.Sprintf("%.2fx (%+.0f%%)", x, (x-1)*100)
}
