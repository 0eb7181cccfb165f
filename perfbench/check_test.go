package main

import (
	"math"
	"strings"
	"testing"
)

var square = [][]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}}

var cube = [][]float64{
	{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
}

func shifted(pts [][]float64, by []float64) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = add(p, by)
	}
	return out
}

func TestValidityCatchesPointJustOutside(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hull    [][]float64
		inside  []float64
		outside []float64
	}{
		{"square", square, []float64{1, 0.5}, []float64{1 + 2*validityTol, 0.5}},
		{"square corner", square, []float64{0, 0}, []float64{-2 * validityTol, -2 * validityTol}},
		{"cube", cube, []float64{0.5, 0.5, 1}, []float64{0.5, 0.5, 1 + 2*validityTol}},
		{"cube edge", cube, []float64{1, 1, 0.5}, []float64{1 + 2*validityTol, 1, 0.5}},
	} {
		h := newHull(tc.hull)
		if err := checkValidity(h, [][]float64{tc.inside}); err != nil {
			t.Errorf("%s: boundary point rejected: %v", tc.name, err)
		}
		err := checkValidity(h, [][]float64{tc.outside})
		if err == nil || !strings.Contains(err.Error(), "validity") {
			t.Errorf("%s: point %v outside the hull passed (err %v)", tc.name, tc.outside, err)
		}
	}
}

func TestValidityOnFlatHull(t *testing.T) {
	flat := [][]float64{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}
	h := newHull(flat)
	if err := checkValidity(h, [][]float64{{0.25, 0.25, 0}}); err != nil {
		t.Errorf("point of a flat hull rejected: %v", err)
	}
	if err := checkValidity(h, [][]float64{{0.25, 0.25, 1e-3}}); err == nil {
		t.Error("point off a flat hull passed")
	}
	if err := checkValidity(h, [][]float64{{0.6, 0.6, 0}}); err == nil {
		t.Error("point beyond the hypotenuse of a flat triangle passed")
	}
}

func TestAgreementCatchesPairJustBeyondEpsilon(t *testing.T) {
	const eps = 0.1
	for _, tc := range []struct {
		name string
		poly [][]float64
		dir  []float64
	}{
		{"square", square, []float64{1, 0}},
		{"cube", cube, []float64{0, 0, 1}},
	} {
		within := shifted(tc.poly, scale(tc.dir, eps-1e-6))
		if err := checkAgreement([][][]float64{tc.poly, within}, eps); err != nil {
			t.Errorf("%s: pair %g apart rejected: %v", tc.name, eps-1e-6, err)
		}
		beyond := shifted(tc.poly, scale(tc.dir, eps+1e-6))
		if err := checkAgreement([][][]float64{tc.poly, beyond}, eps); err == nil {
			t.Errorf("%s: pair %g apart passed", tc.name, eps+1e-6)
		}
	}
}

func TestDirectedDistanceUsesHullNotVertices(t *testing.T) {
	// The top vertex of each triangle is farther than ε from every vertex
	// of the square, so the exact distance to the square's edge decides.
	var h *hull
	near := [][]float64{{0.5, 1.05}, {0.4, 0.9}, {0.6, 0.9}}
	if d, ok := directedWithin(near, square, &h, 0.1); !ok {
		t.Errorf("vertex 0.05 above the square's edge reported %g away", d)
	}
	far := [][]float64{{0.5, 1.1 + 1e-6}, {0.4, 0.9}, {0.6, 0.9}}
	if _, ok := directedWithin(far, square, &h, 0.1); ok {
		t.Error("vertex just beyond ε above the square's edge passed")
	}
}

func TestPointAgreement(t *testing.T) {
	if err := checkPointAgreement([][]float64{{0, 0}, {0.1 - 1e-6, 0}}, 0.1); err != nil {
		t.Errorf("points within ε rejected: %v", err)
	}
	if err := checkPointAgreement([][]float64{{0, 0}, {0.1 + 1e-6, 0}}, 0.1); err == nil {
		t.Error("points beyond ε passed")
	}
}

func TestRoundBoundMatchesEquation19(t *testing.T) {
	for _, tc := range []struct{ n, d, want int }{
		{16, 2, 120}, {11, 3, 80}, {7, 2, 45}, {5, 2, 30},
	} {
		// The smallest t with (1-1/n)^t · sqrt(d·n²·U²) < ε, by iteration.
		iter := 0
		for v := math.Sqrt(float64(tc.d)) * float64(tc.n) * 10; v >= 0.1; v *= 1 - 1/float64(tc.n) {
			iter++
		}
		if got := roundBound(tc.n, tc.d, 0.1, 0, 10); got != iter || got != tc.want {
			t.Errorf("n=%d d=%d: roundBound = %d, iteration %d, want %d", tc.n, tc.d, got, iter, tc.want)
		}
	}
}

func TestTerminationCatchesLateAndMissingDecisions(t *testing.T) {
	if err := checkTermination(3, map[int]bool{2: true}, map[int]int{0: 5, 1: 5}, 5); err != nil {
		t.Errorf("valid decisions rejected: %v", err)
	}
	if err := checkTermination(3, nil, map[int]int{0: 5, 1: 5}, 5); err == nil {
		t.Error("missing decision passed")
	}
	if err := checkTermination(2, nil, map[int]int{0: 5, 1: 6}, 5); err == nil {
		t.Error("decision after t_end passed")
	}
}
