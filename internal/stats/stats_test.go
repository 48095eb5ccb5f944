package stats

import (
	"math"
	"strings"
	"testing"
)

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %f", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("empty geomean should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive value accepted")
		}
	}()
	GeoMean([]float64{1, 0})
}

// TestMeanAndImbalance checks Imbalance, the max over the mean of a
// work distribution.
func TestMeanAndImbalance(t *testing.T) {
	if got := Imbalance([]int64{100, 100, 100, 100}); got != 1 {
		t.Errorf("balanced imbalance = %f", got)
	}
	if got := Imbalance([]int64{400, 0, 0, 0}); got != 4 {
		t.Errorf("degenerate imbalance = %f", got)
	}
	if Imbalance(nil) != 1 || Imbalance([]int64{0, 0}) != 1 {
		t.Error("edge imbalances should be 1")
	}
}

func TestPredictabilityBins(t *testing.T) {
	bins := PredictabilityBins()
	if len(bins) != 4 || bins[0].Name != "low" || bins[3].Name != "high" {
		t.Fatalf("bins = %+v", bins)
	}
	Classify(bins, []float64{0, 10, 30, 60, 90, 100, 25, 26})
	// 0 drops (missing bar); 10,25 -> low; 30,26 -> average; 60 -> good;
	// 90,100 -> high.
	want := []int{2, 2, 1, 2}
	for i, w := range want {
		if bins[i].Count != w {
			t.Errorf("bin %s = %d, want %d", bins[i].Name, bins[i].Count, w)
		}
	}
}

func TestTable(t *testing.T) {
	tbl := &Table{Header: []string{"name", "value"}}
	tbl.Add("alpha", 1)
	tbl.Add("b", 2.5)
	out := tbl.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
	// Headerless table.
	t2 := &Table{}
	t2.Add("x")
	if !strings.Contains(t2.String(), "x") {
		t.Error("headerless table broken")
	}
}

func TestSpeedupFormat(t *testing.T) {
	s := Speedup(2.57)
	if !strings.Contains(s, "2.57x") || !strings.Contains(s, "+157%") {
		t.Errorf("Speedup(2.57) = %q", s)
	}
	if got := Speedup(0.87); !strings.Contains(got, "-13%") {
		t.Errorf("Speedup(0.87) = %q", got)
	}
}
