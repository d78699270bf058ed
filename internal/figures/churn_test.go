package figures_test

import (
	"strings"
	"testing"

	"anonmix/internal/figures"
)

// TestChurnSweep: the churn figure carries one curve per spec × dynamic,
// every curve spans the full 12-round horizon, and the dynamics order as
// the theory demands at the horizon — creeping compromise degrades
// anonymity at least as fast as a growing population.
func TestChurnSweep(t *testing.T) {
	fig, err := figures.ChurnSweep(20, 2, 400, 1, []string{"fixed:3"})
	if err != nil {
		t.Fatal(err)
	}
	if fig.Name != "churn-sweep" {
		t.Errorf("name = %q", fig.Name)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3 (grow, shrink, creep)", len(fig.Series))
	}
	byLabel := map[string][]float64{}
	for _, s := range fig.Series {
		if len(s.Y) != 12 {
			t.Errorf("series %q has %d points, want 12", s.Label, len(s.Y))
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1]+0.02 {
				t.Errorf("series %q not non-increasing at %d: %v", s.Label, i, s.Y)
			}
		}
		byLabel[s.Label] = s.Y
	}
	grow, creep := byLabel["fixed:3/grow"], byLabel["fixed:3/creep"]
	if grow == nil || creep == nil {
		t.Fatalf("labels = %v", byLabel)
	}
	if last := len(grow) - 1; creep[last] >= grow[last] {
		t.Errorf("creeping compromise should end below growth: creep %v, grow %v", creep[last], grow[last])
	}
}

// TestChurnSweepReproducible: the sweep is a pure function of its
// parameters.
func TestChurnSweepReproducible(t *testing.T) {
	gen := func() string {
		fig, err := figures.ChurnSweep(15, 2, 100, 4, []string{"fixed:3"})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := fig.WriteTSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := gen(), gen(); a != b {
		t.Errorf("churn sweep not reproducible:\n%s\nvs\n%s", a, b)
	}
}
