package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"copernicus/internal/backend"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/hlsim"
	"copernicus/internal/matrix"
	"copernicus/internal/scenario"
	"copernicus/internal/workloads"
)

// TestSweepRejectsNaNOutput: a NaN output row never passes against a
// number. A backend that writes NaN into the last row of every point
// fails the sweep naming the group's first format, cold and warm, and
// leaves the engine sweeping clean afterwards.
func TestSweepRejectsNaNOutput(t *testing.T) {
	ws, kinds, ps := sweepInputs()
	ws, ps = ws[:1], ps[:1]
	b := &wrapBackend{mutate: func(m *backend.Measurement) {
		m.Run.Y[len(m.Run.Y)-1] = math.NaN()
	}}
	e := New()
	for _, pass := range []string{"cold", "warm"} {
		_, err := e.SweepKernelsWith(context.Background(), b, ws, spmvOnly, kinds, ps)
		if err == nil || !strings.Contains(err.Error(), "functional mismatch") ||
			!strings.Contains(err.Error(), fmt.Sprintf("/%v/", kinds[0])) {
			t.Fatalf("%s: want a functional mismatch naming %v, got %v", pass, kinds[0], err)
		}
	}
	if _, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps); err != nil {
		t.Fatalf("clean sweep after the corrupted ones: %v", err)
	}
}

// TestSweepNonFiniteMatrixClean: a matrix holding NaN, +Inf and −Inf
// values — an uploaded Matrix Market file may — sweeps clean under the
// analytic backend over every format, cold and warm: its NaN rows are NaN
// in the reference too, and its infinite rows equal there.
func TestSweepNonFiniteMatrixClean(t *testing.T) {
	base := gen.Band(96, 5, 7)
	bld := matrix.NewBuilder(base.Rows, base.Cols)
	for i := 0; i < base.Rows; i++ {
		for q := base.RowPtr[i]; q < base.RowPtr[i+1]; q++ {
			bld.Add(i, base.Col[q], base.Val[q])
		}
	}
	bld.Add(3, 3, math.NaN())
	bld.Add(50, 80, math.NaN())
	bld.Add(17, 60, math.Inf(1))
	bld.Add(40, 41, math.Inf(-1))
	// One row holding both infinities, in different tiles: its partial
	// sums meet only in the row's final accumulation.
	bld.Add(70, 2, math.Inf(1))
	bld.Add(70, 90, math.Inf(-1))
	m := bld.Build()

	ref := m.MulVec(testVector(m.Cols))
	var nan, inf int
	for _, v := range ref {
		switch {
		case math.IsNaN(v):
			nan++
		case math.IsInf(v, 0):
			inf++
		}
	}
	if nan < 2 || inf < 2 {
		t.Fatalf("reference has %d NaN and %d infinite rows, want at least 2 of each", nan, inf)
	}

	ws := []workloads.Workload{{ID: "nonfinite", M: m}}
	e := New()
	for _, pass := range []string{"cold", "warm"} {
		rs, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, formats.All(), []int{8, 16})
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if want := 2 * len(formats.All()); len(rs) != want {
			t.Fatalf("%s: %d results, want %d", pass, len(rs), want)
		}
	}
}

// carryBackend is the analytic backend, except that it records the first
// output it produces for matrix a and writes it over the output of format
// bad on matrix b. It is not Parallelizable, so a sweep runs its groups
// one after another on one goroutine.
type carryBackend struct {
	a, b *matrix.CSR
	bad  formats.Kind
	aY   []float64
}

func (c *carryBackend) ID() string           { return "carrytest" }
func (c *carryBackend) Parallelizable() bool { return false }

func (c *carryBackend) EvaluateInto(ctx context.Context, pl *hlsim.Plan, sc scenario.Spec, k formats.Kind, x []float64, run *hlsim.Result) (backend.Measurement, error) {
	m, err := backend.Analytic{}.EvaluateInto(ctx, pl, sc, k, x, run)
	if err != nil {
		return m, err
	}
	switch {
	case pl.Matrix() == c.a && c.aY == nil:
		c.aY = slices.Clone(m.Run.Y)
	case pl.Matrix() == c.b && k == c.bad:
		copy(m.Run.Y, c.aY)
	}
	return m, nil
}

// TestVerifiedCopyIsPerGroup: a group's verified copy never carries over
// to another reference. Matrices A and B have one dimension, so A's
// verified product has the length of B's; written into a format of B — its
// first, which a copy carried over from A's group would pass on the byte
// compare, or a later one — it fails with a functional mismatch naming
// that format, cold and warm.
func TestVerifiedCopyIsPerGroup(t *testing.T) {
	a, b := gen.Random(128, 0.05, 3), gen.Band(128, 5, 5)
	ws := []workloads.Workload{{ID: "A", M: a}, {ID: "B", M: b}}
	kinds := formats.Core()
	for _, bad := range []formats.Kind{kinds[0], kinds[4]} {
		e := New()
		for _, pass := range []string{"cold", "warm"} {
			cb := &carryBackend{a: a, b: b, bad: bad}
			_, err := e.SweepKernelsWith(context.Background(), cb, ws, spmvOnly, kinds, []int{16})
			if err == nil || !strings.Contains(err.Error(), "functional mismatch") ||
				!strings.Contains(err.Error(), fmt.Sprintf("B/%v/", bad)) {
				t.Fatalf("%v %s: want a functional mismatch naming B/%v, got %v", bad, pass, bad, err)
			}
		}
	}
}

// loopMismatch is the functional check's rule stated case by case: NaN
// passes only against NaN, an infinity only against itself, and finite
// values within tol. It returns the first failing row, or -1.
func loopMismatch(y, ref []float64, tol float64) int {
	for i, r := range ref {
		var ok bool
		switch v := y[i]; {
		case math.IsNaN(v) || math.IsNaN(r):
			ok = math.IsNaN(v) && math.IsNaN(r)
		case math.IsInf(v, 0) || math.IsInf(r, 0):
			ok = v == r
		default:
			ok = math.Abs(v-r) <= tol
		}
		if !ok {
			return i
		}
	}
	return -1
}

// float64Bytes encodes vs little-endian, the reference encoding
// FuzzGroupCheck decodes.
func float64Bytes(vs ...float64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzGroupCheck: over a sequence of outputs checked against one
// reference, the group's check — the byte compare with its verified copy,
// then the full loop — makes every decision a fresh full loop makes, at
// the same row. The reference is up to 16 float64s; each op byte either
// checks the current output (op%16 == 0) or mutates one of its rows
// (op/16 picks it) by bits: NaN payloads, ±0, ±Inf, one-ulp nudges, a
// sign flip, a within-tolerance step, or a reset to the reference or to
// the last output checked.
func FuzzGroupCheck(f *testing.F) {
	f.Add(float64Bytes(1.5, -2.25, 0, 3e-12, 1e300, math.Copysign(0, -1)), false,
		[]byte{0x00, 0x1c, 0x00, 0x0d, 0x00, 0x29, 0x00, 0x0e, 0x00, 0x32, 0x00})
	f.Add(float64Bytes(0.125, math.Inf(1), math.NaN(), -7), true,
		[]byte{0x00, 0x17, 0x00, 0x11, 0x00, 0x22, 0x00, 0x2f, 0x00, 0x33, 0x00, 0x0e, 0x00})
	f.Add(float64Bytes(-1, 2, -3, 4, -5, 6, -7, 8), false,
		[]byte{0x05, 0x00, 0x06, 0x00, 0x15, 0x00, 0x1b, 0x00, 0x1a, 0x00, 0x0e, 0x00, 0x0d, 0x00})
	f.Fuzz(func(t *testing.T, refBits []byte, exact bool, ops []byte) {
		n := min(len(refBits)/8, 16)
		if n == 0 {
			return
		}
		ref := make([]float64, n)
		for i := range ref {
			ref[i] = math.Float64frombits(binary.LittleEndian.Uint64(refBits[8*i:]))
		}
		tol := 1e-9
		if exact {
			tol = 0
		}
		var c groupCheck
		c.reset()
		cur, last := slices.Clone(ref), slices.Clone(ref)
		check := func() {
			got, full, want := c.mismatch(cur, ref, tol), mismatchRow(cur, ref, tol), loopMismatch(cur, ref, tol)
			if got != want || full != want {
				t.Fatalf("y=%v ref=%v tol=%g: group check row %d, full loop row %d, want %d", cur, ref, tol, got, full, want)
			}
			copy(last, cur)
		}
		for _, op := range ops {
			i := int(op/16) % n
			switch op % 16 {
			case 0:
				check()
			case 1:
				cur[i] = ref[i]
			case 2:
				cur[i] = math.NaN()
			case 3:
				cur[i] = math.Float64frombits(0x7ff0000000000001) // signalling payload
			case 4:
				cur[i] = math.Float64frombits(0xfff8000000000000 | uint64(i)) // negative quiet NaN
			case 5:
				cur[i] = 0
			case 6:
				cur[i] = math.Copysign(0, -1)
			case 7:
				cur[i] = math.Inf(1)
			case 8:
				cur[i] = math.Inf(-1)
			case 9:
				cur[i] = math.Nextafter(cur[i], math.Inf(1))
			case 10:
				cur[i] = math.Nextafter(cur[i], math.Inf(-1))
			case 11:
				cur[i] = -cur[i]
			case 12:
				cur[i] += 5e-10
			case 13:
				copy(cur, ref)
			case 14:
				copy(cur, last)
			case 15:
				cur[i] = math.Float64frombits(math.Float64bits(cur[i]) ^ 1) // low-bit flip, NaN payloads too
			}
		}
		check()
	})
}
