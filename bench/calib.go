package main

// Machine-speed calibration. The shared two-vCPU host the benchmark was
// sized on changes speed by 1.4× within minutes and by up to 3× within
// seconds, for every workload at once, and a run of -seconds cannot
// average that out. So every untraced pass times short slices of a fixed
// calibration load while it runs: before its first op, every calEvery
// between ops (for the daemon, with both connections idle), and after its
// last op. It scales its times by calRef over the slices' mean time: the
// times the pass would have taken on the machine at its reference speed.
// The load uses the same two threads the workloads do and only the Go
// standard library, and it is the same for every commit of this
// repository, so a change to the code under test moves the scaled times
// as it moves the raw ones. Once set up it holds about 200 KiB and
// allocates under 1 KiB a slice, so it barely moves the collector's
// pacing of the code it runs beside.

import (
	"crypto/sha256"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
)

const (
	// calIters is a slice's iterations per thread.
	calIters = 60
	// calRef is a slice's time on the machine the benchmark was sized on.
	calRef = 37 * time.Millisecond
	// calEvery is the time from the end of one slice to the next.
	calEvery = 300 * time.Millisecond
)

// gauge times a pass's calibration slices. A nil gauge does nothing, for
// the traced passes, which are not scaled.
type gauge struct {
	loads [conns]*calLoad
	last  time.Time
	spent time.Duration // in slices
	n     int
}

func newGauge() *gauge {
	m := &gauge{}
	for t := range m.loads {
		m.loads[t] = newCalLoad(uint64(t) + 1)
	}
	return m
}

// tick runs a slice once calEvery has passed since the last one, and
// returns the time it took.
func (m *gauge) tick() time.Duration {
	if m == nil || time.Since(m.last) < calEvery {
		return 0
	}
	return m.slice()
}

// slice runs one slice, calIters iterations of the load on each thread,
// and returns its time.
func (m *gauge) slice() time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, l := range m.loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(calIters)
		}()
	}
	wg.Wait()
	m.last = time.Now()
	d := m.last.Sub(start)
	m.spent += d
	m.n++
	return d
}

// scale is calRef over the mean slice time.
func (m *gauge) scale() float64 {
	return float64(calRef) * float64(m.n) / float64(m.spent)
}

// calLoad is one thread's calibration load: hashing, sorting, number
// formatting, map and floating-point work on inputs drawn once.
type calLoad struct {
	buf          []byte
	ints, sorted []int
	floats       []float64
	text         []byte
	m            map[int]int
	sink         float64
}

func newCalLoad(x uint64) *calLoad {
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	l := &calLoad{buf: make([]byte, 16<<10), ints: make([]int, 4096), sorted: make([]int, 4096),
		floats: make([]float64, 200), m: make(map[int]int, 1024)}
	for i := range l.buf {
		l.buf[i] = byte(next())
	}
	for i := range l.ints {
		l.ints[i] = int(next() >> 1)
	}
	for i := range l.floats {
		l.floats[i] = float64(next()>>11) / (1 << 53)
	}
	l.run(1) // grows the text buffer and the map to their working size
	return l
}

func (l *calLoad) run(iters int) {
	for range iters {
		h := sha256.Sum256(l.buf)
		copy(l.sorted, l.ints)
		slices.Sort(l.sorted)
		l.text = l.text[:0]
		for i, f := range l.floats {
			l.text = strconv.AppendInt(l.text, int64(l.ints[i]), 10)
			l.text = strconv.AppendFloat(l.text, f, 'g', -1, 64)
		}
		clear(l.m)
		for i, v := range l.ints {
			l.m[v&1023] += i
		}
		for i := 1; i < 2000; i++ {
			l.sink += math.Log(float64(i)) * math.Exp(-float64(i)/2000)
		}
		l.sink += float64(h[0]) + float64(l.sorted[0]&1) + float64(len(l.text)+len(l.m))
	}
}
