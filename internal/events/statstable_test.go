package events

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"anonmix/internal/dist"
)

// FuzzStatsTable makes "statsFor reads a class only through (k, base,
// free, nObs)" an executable check: every class decoded from the input,
// then every class with at most four compromised nodes, is looked up in
// one shared StatsTable, so classes of equal shape hit each other's
// entries, and each answer must be bit-identical to statsFor computed for
// that very class and carry the argument as its Class; ShapeStats, given
// the class's counts, must return the same Alpha, Rest and H. Invalid
// classes must fail with ErrClassMismatch.
func FuzzStatsTable(f *testing.F) {
	f.Add(uint8(23), uint8(3), uint8(0), false, uint8(0), uint8(0), uint8(12), []byte{1, 2, 3, 2, 2, 1, 3, 1, 2, 1, 1, 2, 4, 0})
	f.Add(uint8(38), uint8(1), uint8(2), false, uint8(1), uint8(6), uint8(0), []byte{5, 9, 13, 1, 1, 2, 0, 1, 3})
	f.Add(uint8(98), uint8(40), uint8(1), true, uint8(2), uint8(90), uint8(30), []byte{4, 1, 1, 1, 1, 2, 1, 1, 4, 0})
	f.Add(uint8(10), uint8(0), uint8(0), true, uint8(3), uint8(2), uint8(7), []byte{0, 0, 0, 4, 0, 1, 0, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, nb, cb, mb uint8, uncompromisedReceiver bool, kind, a, b uint8, in []byte) {
		n := 2 + int(nb)%199
		c := int(cb) % n
		mode := InferenceMode(1 + mb%3)
		if mode == InferenceHopCount {
			c %= 2
		}
		opts := []Option{WithInference(mode)}
		if uncompromisedReceiver {
			opts = append(opts, WithUncompromisedReceiver())
		}
		e, err := New(n, c, opts...)
		if mode == InferenceHopCount && uncompromisedReceiver {
			// Timing needs the receiver's report as its baseline.
			if !errors.Is(err, ErrInvalidSystem) {
				t.Fatalf("hop-count engine with an honest receiver: err = %v, want ErrInvalidSystem", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		d := fuzzLength(t, n, kind, a, b)
		table, err := e.StatsTable(d)
		if err != nil {
			t.Fatalf("StatsTable(%v) on N=%d: %v", d, n, err)
		}
		check := func(cl Class) {
			got, err := table.StatsFor(cl)
			if cl.validate() != nil || cl.K() > c {
				if !errors.Is(err, ErrClassMismatch) {
					t.Fatalf("invalid class %+v: err = %v, want ErrClassMismatch", cl, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("class %s: %v", cl, err)
			}
			want := e.statsFor(cl, d)
			if math.Float64bits(got.P) != math.Float64bits(want.P) ||
				math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) ||
				math.Float64bits(got.H) != math.Float64bits(want.H) || got.Rest != want.Rest {
				t.Fatalf("N=%d C=%d %v receiver=%v %v class %s: table %+v, statsFor %+v",
					n, c, mode, !uncompromisedReceiver, d, cl, got, want)
			}
			if !reflect.DeepEqual(got.Class, cl) {
				t.Fatalf("class %s: table returned class %s", cl, got.Class)
			}
			var one, wide int
			for _, g := range cl.Gaps {
				if g == GapOne {
					one++
				} else {
					wide++
				}
			}
			alpha, rest, h, err := table.ShapeStats(cl.K(), one, wide, cl.Tail)
			if err != nil {
				t.Fatalf("class %s: ShapeStats: %v", cl, err)
			}
			if math.Float64bits(alpha) != math.Float64bits(want.Alpha) ||
				math.Float64bits(h) != math.Float64bits(want.H) || rest != want.Rest {
				t.Fatalf("class %s: ShapeStats (alpha %v, rest %d, H %v), statsFor %+v", cl, alpha, rest, h, want)
			}
		}
		for len(in) > 0 {
			var cl Class
			cl, in = decodeClass(in)
			check(cl)
		}
		// Then every small class through the same table, so that each
		// shape collision among them is looked up from both sides.
		for _, cl := range Enumerate(min(c, 4), !uncompromisedReceiver) {
			check(cl)
		}
	})
}

// fuzzLength builds a uniform, fixed, geometric, or explicit PMF length
// distribution whose support lies in [0, n−1].
func fuzzLength(t *testing.T, n int, kind, a, b uint8) dist.Length {
	t.Helper()
	lo := int(a) % n
	hi := lo + int(b)%(n-lo)
	var d dist.Length
	var err error
	switch kind % 4 {
	case 0:
		d, err = dist.NewUniform(lo, hi)
	case 1:
		d, err = dist.NewFixed(lo)
	case 2:
		d, err = dist.NewGeometric(float64(b%100)/100, lo, hi)
	default:
		mass := make([]float64, min(hi-lo+1, 12))
		var sum float64
		for i := range mass {
			mass[i] = float64((i*int(b) + int(a) + 1) % 4) // zero atoms included
			sum += mass[i]
		}
		if sum == 0 {
			mass[0], sum = 1, 1
		}
		for i := range mass {
			mass[i] /= sum
		}
		d, err = dist.NewPMF(lo, mass)
	}
	if err != nil {
		t.Fatalf("kind %d on [%d,%d]: %v", kind%4, lo, hi, err)
	}
	return d
}

// decodeClass decodes one class signature from the head of in and returns
// the rest. Most inputs decode to valid classes; zero-length runs, wrong
// gap counts and out-of-range flags are all reachable.
func decodeClass(in []byte) (Class, []byte) {
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		v := in[0]
		in = in[1:]
		return v
	}
	head := next()
	var cl Class
	runs := int(head % 5)
	for range runs {
		cl.Runs = append(cl.Runs, int(next()%6))
	}
	gaps := max(runs-1, 0)
	if head&0x80 != 0 && head&0x40 != 0 {
		gaps++ // one flag too many
	}
	for range gaps {
		cl.Gaps = append(cl.Gaps, GapFlag(next()%3))
	}
	cl.Tail = TailFlag(next() % 5)
	return cl, in
}

// TestShapeStatsRejectsImpossibleCounts: counts that describe no class
// StatsFor would accept fail with ErrClassMismatch.
func TestShapeStatsRejectsImpossibleCounts(t *testing.T) {
	e, err := New(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dist.NewUniform(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.StatsTable(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name         string
		k, one, wide int
		tail         TailFlag
	}{
		{"more compromised than the system", 4, 0, 0, TailZero},
		{"negative count", 2, -1, 0, TailOne},
		{"more runs than compromised", 2, 1, 1, TailOne},
		{"gaps without runs", 0, 1, 0, TailZero},
		{"no tail flag", 1, 0, 0, 0},
		{"unknown tail flag", 1, 0, 0, TailUnobserved + 1},
	} {
		if _, _, _, err := table.ShapeStats(c.k, c.one, c.wide, c.tail); !errors.Is(err, ErrClassMismatch) {
			t.Errorf("%s: err = %v, want ErrClassMismatch", c.name, err)
		}
	}
	if _, _, _, err := table.ShapeStats(0, 0, 0, 0); err != nil {
		t.Errorf("empty class: %v", err)
	}
}

// TestStatsTableUnpackedShape: a class whose shape has a field too large
// to pack (here a run of 2^16 compromised nodes) is computed directly,
// bit-identically to statsFor, through StatsFor and ShapeStats alike.
func TestStatsTableUnpackedShape(t *testing.T) {
	const k = maxShapeField
	e, err := New(k+10, k+4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dist.NewUniform(k, k+3)
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.StatsTable(d)
	if err != nil {
		t.Fatal(err)
	}
	cl := Class{Runs: []int{k}, Tail: TailOne}
	got, err := table.StatsFor(cl)
	if err != nil {
		t.Fatal(err)
	}
	want := e.statsFor(cl, d)
	if !(want.P > 0) {
		t.Fatalf("class %s unreachable under %v; the check needs mass", cl, d)
	}
	if math.Float64bits(got.P) != math.Float64bits(want.P) || math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) ||
		math.Float64bits(got.H) != math.Float64bits(want.H) || got.Rest != want.Rest {
		t.Errorf("StatsFor %+v, statsFor %+v", got, want)
	}
	alpha, rest, h, err := table.ShapeStats(k, 0, 0, TailOne)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(alpha) != math.Float64bits(want.Alpha) || math.Float64bits(h) != math.Float64bits(want.H) || rest != want.Rest {
		t.Errorf("ShapeStats (%v, %d, %v), statsFor %+v", alpha, rest, h, want)
	}
}
