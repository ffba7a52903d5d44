package workloads

import (
	"testing"
)

func TestSuiteSparseComplete(t *testing.T) {
	ws := SuiteSparse(Config{})
	if len(ws) != 20 {
		t.Fatalf("SuiteSparse surrogates = %d, want the 20 matrices of Table 1", len(ws))
	}
	wantIDs := []string{"2C", "FR", "RE", "AM", "DW", "EO", "FL", "HC", "HU", "KR",
		"RL", "RJ", "RO", "RC", "LJ", "TH", "WE", "WG", "WT", "WI"}
	for i, id := range wantIDs {
		if ws[i].ID != id {
			t.Errorf("workload %d ID = %s, want %s (Table 1 order)", i, ws[i].ID, id)
		}
	}
}

func TestSuiteSparseValidity(t *testing.T) {
	for _, w := range SuiteSparse(Config{}) {
		if err := w.M.Validate(); err != nil {
			t.Errorf("%s: %v", w.ID, err)
		}
		if w.M.NNZ() == 0 {
			t.Errorf("%s: empty surrogate", w.ID)
		}
		if w.PaperDim <= 0 || w.PaperNNZ <= 0 {
			t.Errorf("%s: missing Table 1 provenance", w.ID)
		}
		if w.M.Rows > 1100 {
			t.Errorf("%s: dimension %d exceeds the default scale", w.ID, w.M.Rows)
		}
	}
}

func TestSuiteSparseAllSparse(t *testing.T) {
	for _, w := range SuiteSparse(Config{}) {
		if d := w.Density(); d > 0.12 {
			t.Errorf("%s: density %.4f too high for a SuiteSparse surrogate", w.ID, d)
		}
	}
}

func TestSuiteSparseDeterministic(t *testing.T) {
	a := SuiteSparse(Config{})
	b := SuiteSparse(Config{})
	for i := range a {
		if a[i].M.NNZ() != b[i].M.NNZ() {
			t.Fatalf("%s: non-deterministic surrogate", a[i].ID)
		}
	}
}

func TestSuiteSparseKindDiversity(t *testing.T) {
	// The suite must span the three application domains of §3.1.
	kinds := map[string]bool{}
	for _, w := range SuiteSparse(Config{}) {
		kinds[w.Kind] = true
	}
	if len(kinds) < 6 {
		t.Fatalf("only %d distinct kinds; Table 1 spans 10+", len(kinds))
	}
}

func TestRandomSuiteDensities(t *testing.T) {
	ws := RandomSuite(Config{})
	if len(ws) != len(RandomDensities) {
		t.Fatalf("random suite size %d", len(ws))
	}
	for i, w := range ws {
		got := w.Density()
		want := RandomDensities[i]
		if got < want/2 || got > want*2 {
			t.Errorf("%s: density %.5f, want ~%g", w.ID, got, want)
		}
	}
}

func TestBandSuiteWidths(t *testing.T) {
	ws := BandSuite(Config{})
	if len(ws) != len(BandWidths) {
		t.Fatalf("band suite size %d", len(ws))
	}
	for i, w := range ws {
		if bw := w.M.Bandwidth(); bw != BandWidths[i]/2 {
			t.Errorf("%s: bandwidth %d, want %d", w.ID, bw, BandWidths[i]/2)
		}
	}
}

func TestConfigScaling(t *testing.T) {
	small := SuiteSparse(Config{Scale: 256})
	for _, w := range small {
		if w.ID == "DW" || w.ID == "RL" { // fixed-size originals
			continue
		}
		if w.M.Rows > 300 {
			t.Errorf("%s: scale 256 produced %d rows", w.ID, w.M.Rows)
		}
	}
	band := BandSuite(Config{BandDim: 128})
	for _, w := range band {
		if w.M.Rows != 128 {
			t.Errorf("%s: rows %d, want 128", w.ID, w.M.Rows)
		}
	}
}

func TestLog2Floor(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 255: 7, 256: 8, 1023: 9, 1024: 10, 1025: 10}
	for n, want := range cases {
		if got := log2floor(n); got != want {
			t.Errorf("log2floor(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestSurrogateDegreeFidelity: each surrogate's average nnz/row must be
// within a factor of 5 of its SuiteSparse original's — the structural
// knob the substitution promises to preserve.
func TestSurrogateDegreeFidelity(t *testing.T) {
	for _, w := range SuiteSparse(Config{}) {
		paperDeg := w.PaperNNZ / w.PaperDim
		gotDeg := float64(w.M.NNZ()) / float64(w.M.Rows)
		ratio := gotDeg / paperDeg
		if ratio < 1.0/5 || ratio > 5 {
			t.Errorf("%s (%s): surrogate nnz/row %.2f vs paper %.2f (ratio %.2f)",
				w.ID, w.Name, gotDeg, paperDeg, ratio)
		}
	}
}

func TestPartitionSizes(t *testing.T) {
	if len(PartitionSizes) != 3 || PartitionSizes[0] != 8 || PartitionSizes[2] != 32 {
		t.Fatalf("PartitionSizes = %v, want [8 16 32]", PartitionSizes)
	}
}
