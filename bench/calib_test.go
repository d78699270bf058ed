package main

import (
	"math"
	"runtime"
	"testing"
)

func TestGaugeScale(t *testing.T) {
	// Four slices in twice one slice's reference time: the machine ran at
	// twice its reference speed, so the pass's times double.
	m := gauge{n: 4, spent: 2 * calRef}
	if got := m.scale(); math.Abs(got-2) > 1e-12 {
		t.Errorf("scale = %v, want 2", got)
	}
}

func TestGaugeSliceAllocatesLittle(t *testing.T) {
	m := newGauge()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 5 {
		m.slice()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 5; per > 8<<10 {
		t.Errorf("a slice allocates %d bytes; the pass it runs in would collect more often", per)
	}
	if m.n != 5 || !(m.scale() > 0) {
		t.Errorf("%d slices, scale %v", m.n, m.scale())
	}
}
