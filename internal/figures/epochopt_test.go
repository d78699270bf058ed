package figures_test

import (
	"math"
	"strings"
	"testing"

	"anonmix/internal/figures"
	"anonmix/internal/scenario"
)

// TestEpochOptimizerSweep: nine curves (three policies × three dynamics),
// per-epoch re-optimization dominates the static and joint policies at
// every epoch (all three are scored by the same epoch engines, and
// per-epoch maximizes each one to a certified gap of at most 1e-9 bits),
// and the engines behind the sweep ride the delta cache. It runs the
// committed golden's configuration (N = 24, C = 2, support [0, 8]) too.
func TestEpochOptimizerSweep(t *testing.T) {
	for _, cfg := range [][3]int{{30, 3, 10}, {24, 2, 8}} {
		checkEpochOptimizerSweep(t, cfg[0], cfg[1], cfg[2])
	}
}

func checkEpochOptimizerSweep(t *testing.T, n, c, hi int) {
	t.Helper()
	scenario.ResetEngines()
	defer scenario.ResetEngines()
	fig, err := figures.EpochOptimizerSweep(n, c, hi)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Name != "epoch-optimizer" {
		t.Errorf("name = %q", fig.Name)
	}
	if len(fig.Series) != 9 {
		t.Fatalf("series = %d, want 9 (3 policies x 3 dynamics)", len(fig.Series))
	}
	byLabel := map[string][]float64{}
	for _, s := range fig.Series {
		if len(s.Y) != 3 {
			t.Errorf("series %q has %d points, want 3 epochs", s.Label, len(s.Y))
		}
		byLabel[s.Label] = s.Y
	}
	// The per-epoch optimum is certified to within its gap (≤ 1e-9 bits),
	// so no distribution beats it on its own epoch by more than that plus
	// rounding.
	const slack = 1e-9 + 1e-9
	for _, dyn := range []string{"grow", "shrink", "creep"} {
		per, static, joint := byLabel["per-epoch/"+dyn], byLabel["static/"+dyn], byLabel["joint/"+dyn]
		if per == nil || static == nil || joint == nil {
			t.Fatalf("missing curves for %s: %v", dyn, byLabel)
		}
		for e := range per {
			if per[e] < static[e]-slack || per[e] < joint[e]-slack {
				t.Errorf("N=%d C=%d %s epoch %d: per-epoch %v below static %v or joint %v",
					n, c, dyn, e, per[e], static[e], joint[e])
			}
		}
		// At epoch 0 the system is the static design point, so the static
		// policy is epoch-optimal there.
		if math.Abs(per[0]-static[0]) > slack {
			t.Errorf("%s epoch 0: static %v should match per-epoch %v at the design point",
				dyn, static[0], per[0])
		}
	}
	// The three dynamics share engine states ((n, c) appears in all of
	// them), so the sweep must have exercised the cache.
	st := scenario.CacheStats()
	if st.Hits == 0 || st.DeltaDerived == 0 {
		t.Errorf("sweep did not exercise the delta cache: %+v", st)
	}
}

// TestEpochOptimizerReproducible: the sweep is a pure function of its
// parameters (every solve is serial and deterministic).
func TestEpochOptimizerReproducible(t *testing.T) {
	gen := func() string {
		fig, err := figures.EpochOptimizerSweep(24, 2, 8)
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
		t.Errorf("epoch-optimizer sweep not reproducible:\n%s\nvs\n%s", a, b)
	}
}
