package figures_test

// The figure generators fan their per-point computations out over the
// shared worker pool. These tests pin the central determinism guarantee:
// the parallel output is byte-for-byte identical to the serial reference
// path (pool width 1), including the figures that drive the optimizer.

import (
	"strings"
	"testing"

	"anonmix/internal/figures"
	"anonmix/internal/pool"
)

// tsv renders a figure generated by gen to its TSV byte representation.
func tsv(t *testing.T, gen func() (figures.Figure, error)) string {
	t.Helper()
	fig, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fig.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestParallelFiguresBitIdenticalToSerial(t *testing.T) {
	gens := map[string]func() (figures.Figure, error){
		"3a": figures.Fig3a,
		"4a": figures.Fig4a,
		"5d": figures.Fig5d,
		"6":  func() (figures.Figure, error) { return figures.Fig6(8) },
		"churn-sweep": func() (figures.Figure, error) {
			return figures.ChurnSweep(15, 2, 300, 4, []string{"fixed:3"})
		},
		"degradation-rounds": func() (figures.Figure, error) {
			return figures.DegradationRoundsSweep(14, 3, 300, 6, 2, []string{"fixed:3", "uniform:1,5"})
		},
	}
	for name, gen := range gens {
		// Both passes start from cold shared engines (the engine cache is
		// dropped in between), so the parallel fan-out and the serial
		// reference each do the full computation independently.
		figures.ResetEnginesForTest()
		prev := pool.SetWorkers(8)
		parallel := tsv(t, gen)
		figures.ResetEnginesForTest()
		pool.SetWorkers(1)
		serial := tsv(t, gen)
		pool.SetWorkers(prev)
		if serial != parallel {
			t.Errorf("figure %s: parallel TSV differs from serial TSV", name)
		}
		// Regenerating over the now-warm serial-pass caches must also be
		// identical: the memo has to be transparent.
		warm := tsv(t, gen)
		if warm != serial {
			t.Errorf("figure %s: warm-cache TSV differs from cold serial TSV", name)
		}
	}
}
