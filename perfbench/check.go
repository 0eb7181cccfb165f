package main

import (
	"fmt"
	"math"
)

// The checks below share no code with the program under test: hulls are
// described by brute-force facets through every d-subset of their points,
// which is slow but obviously right at d <= 3 and the sizes the workloads
// produce.

// validityTol is the distance a decided vertex may lie outside the hull of
// the correct inputs: far above the program's 1e-9 geometric tolerance on
// coordinates of size 10, far below any real violation.
const validityTol = 1e-6

// agreementSlack absorbs float rounding in the ε-agreement comparison.
const agreementSlack = 1e-9

// hull describes conv(pts) for d = 2 or 3.
type hull struct {
	pts [][]float64
	// facets holds supporting halfspaces n·x <= b (n unit length) with the
	// index tuple of the d points spanning each; empty when pts is not
	// full-dimensional.
	facets []facet
}

type facet struct {
	n     []float64
	b     float64
	verts []int
}

func newHull(pts [][]float64) *hull {
	h := &hull{pts: pts}
	if len(pts) == 0 {
		return h
	}
	d := len(pts[0])
	forSubsets(len(pts), d, func(idx []int) {
		n := normal(pts, idx)
		if n == nil {
			return
		}
		b := dot(n, pts[idx[0]])
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			s := dot(n, p) - b
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
		}
		const flat = 1e-12
		switch {
		case hi <= flat && lo < -flat:
			h.facets = append(h.facets, facet{n: n, b: b, verts: append([]int(nil), idx...)})
		case lo >= -flat && hi > flat:
			h.facets = append(h.facets, facet{n: scale(n, -1), b: -b, verts: append([]int(nil), idx...)})
		}
	})
	return h
}

// dist returns the Euclidean distance from p to the hull.
func (h *hull) dist(p []float64) float64 {
	if len(h.facets) > 0 {
		inside := true
		for _, f := range h.facets {
			if dot(f.n, p)-f.b > 0 {
				inside = false
				break
			}
		}
		if inside {
			return 0
		}
		// Outside, the nearest hull point lies on a facet, and every facet
		// is covered by the simplices spanned by its d-subsets.
		best := math.Inf(1)
		for _, f := range h.facets {
			best = math.Min(best, distSimplex(p, h.pts, f.verts))
		}
		return best
	}
	// Lower-dimensional hull: it is the union of the simplices spanned by
	// all subsets of at most d points.
	best := math.Inf(1)
	for k := 1; k <= len(p) && k <= len(h.pts); k++ {
		forSubsets(len(h.pts), k, func(idx []int) {
			best = math.Min(best, distSimplex(p, h.pts, idx))
		})
	}
	return best
}

// checkValidity reports the first point lying outside the hull of inputs.
func checkValidity(inputs *hull, pts [][]float64) error {
	for _, p := range pts {
		if d := inputs.dist(p); d > validityTol {
			return fmt.Errorf("validity: point %v lies %.3g outside the correct-input hull", p, d)
		}
	}
	return nil
}

// checkAgreement verifies that every pair of polytopes (given by vertices)
// lies within Hausdorff distance eps.
func checkAgreement(polys [][][]float64, eps float64) error {
	hulls := make([]*hull, len(polys))
	for i := range polys {
		for j := range polys {
			if i == j {
				continue
			}
			if d, ok := directedWithin(polys[i], polys[j], &hulls[j], eps); !ok {
				return fmt.Errorf("agreement: output %d is %.6g from output %d, above ε=%g", i, d, j, eps)
			}
		}
	}
	return nil
}

// directedWithin reports whether every vertex of a lies within eps of
// conv(b), with the offending distance when not. The nearest vertex of b
// bounds the distance from above; only when that bound exceeds eps is the
// exact distance to the hull computed (b's hull is built once, lazily).
func directedWithin(a, b [][]float64, hb **hull, eps float64) (float64, bool) {
	for _, p := range a {
		near := math.Inf(1)
		for _, q := range b {
			near = math.Min(near, norm(sub(p, q)))
		}
		if near <= eps+agreementSlack {
			continue
		}
		if *hb == nil {
			*hb = newHull(b)
		}
		if d := (*hb).dist(p); d > eps+agreementSlack {
			return d, false
		}
	}
	return 0, true
}

// checkPointAgreement verifies pairwise Euclidean distance <= eps.
func checkPointAgreement(pts [][]float64, eps float64) error {
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := norm(sub(pts[i], pts[j])); d > eps+agreementSlack {
				return fmt.Errorf("agreement: points %d and %d are %.6g apart, above ε=%g", i, j, d, eps)
			}
		}
	}
	return nil
}

// roundBound is t_end of equation (19): the smallest t >= 0 with
// (1 - 1/n)^t · sqrt(d · n² · max(U², µ²)) < ε, computed in closed form.
func roundBound(n, d int, eps, lower, upper float64) int {
	m := math.Max(math.Abs(lower), math.Abs(upper))
	bound := math.Sqrt(float64(d)*float64(n)*float64(n)) * m
	if bound < eps {
		return 0
	}
	t := int(math.Floor(math.Log(eps/bound)/math.Log(1-1/float64(n)))) + 1
	// Guard the closed form against rounding at the boundary.
	for t > 0 && math.Pow(1-1/float64(n), float64(t-1))*bound < eps {
		t--
	}
	for math.Pow(1-1/float64(n), float64(t))*bound >= eps {
		t++
	}
	return t
}

// checkTermination verifies that every process not in crashed decided, at a
// round in [1, tEnd].
func checkTermination(n int, crashed map[int]bool, rounds map[int]int, tEnd int) error {
	for i := 0; i < n; i++ {
		if crashed[i] {
			continue
		}
		r, ok := rounds[i]
		if !ok {
			return fmt.Errorf("termination: process %d did not decide", i)
		}
		if r < 1 || r > tEnd {
			return fmt.Errorf("termination: process %d decided at round %d, outside [1, t_end=%d]", i, r, tEnd)
		}
	}
	return nil
}

// forSubsets calls fn with every k-subset of {0..n-1} in lexicographic
// order (the slice is reused between calls).
func forSubsets(n, k int, fn func(idx []int)) {
	if k > n || k <= 0 {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		fn(idx)
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// normal returns the unit normal of the hyperplane through the d points
// pts[idx], or nil when they are degenerate.
func normal(pts [][]float64, idx []int) []float64 {
	var n []float64
	switch len(idx) {
	case 2:
		e := sub(pts[idx[1]], pts[idx[0]])
		n = []float64{-e[1], e[0]}
	case 3:
		n = cross(sub(pts[idx[1]], pts[idx[0]]), sub(pts[idx[2]], pts[idx[0]]))
	default:
		return nil
	}
	l := norm(n)
	if l < 1e-12 {
		return nil
	}
	return scale(n, 1/l)
}

// distSimplex returns the distance from p to the simplex pts[idx] (a point,
// a segment or a triangle).
func distSimplex(p []float64, pts [][]float64, idx []int) float64 {
	switch len(idx) {
	case 1:
		return norm(sub(p, pts[idx[0]]))
	case 2:
		return norm(sub(p, closestOnSegment(p, pts[idx[0]], pts[idx[1]])))
	default:
		return norm(sub(p, closestOnTriangle(p, pts[idx[0]], pts[idx[1]], pts[idx[2]])))
	}
}

func closestOnSegment(p, a, b []float64) []float64 {
	ab := sub(b, a)
	den := dot(ab, ab)
	if den == 0 {
		return a
	}
	t := math.Max(0, math.Min(1, dot(sub(p, a), ab)/den))
	return add(a, scale(ab, t))
}

// closestOnTriangle is the Voronoi-region walk of Ericson, Real-Time
// Collision Detection §5.1.5.
func closestOnTriangle(p, a, b, c []float64) []float64 {
	ab, ac, ap := sub(b, a), sub(c, a), sub(p, a)
	d1, d2 := dot(ab, ap), dot(ac, ap)
	if d1 <= 0 && d2 <= 0 {
		return a
	}
	bp := sub(p, b)
	d3, d4 := dot(ab, bp), dot(ac, bp)
	if d3 >= 0 && d4 <= d3 {
		return b
	}
	vc := d1*d4 - d3*d2
	if vc <= 0 && d1 >= 0 && d3 <= 0 {
		return add(a, scale(ab, d1/(d1-d3)))
	}
	cp := sub(p, c)
	d5, d6 := dot(ab, cp), dot(ac, cp)
	if d6 >= 0 && d5 <= d6 {
		return c
	}
	vb := d5*d2 - d1*d6
	if vb <= 0 && d2 >= 0 && d6 <= 0 {
		return add(a, scale(ac, d2/(d2-d6)))
	}
	va := d3*d6 - d5*d4
	if va <= 0 && d4-d3 >= 0 && d5-d6 >= 0 {
		return add(b, scale(sub(c, b), (d4-d3)/((d4-d3)+(d5-d6))))
	}
	den := va + vb + vc
	if den == 0 {
		// Degenerate (collinear) triangle: its edges cover it.
		best := closestOnSegment(p, a, b)
		for _, q := range [][]float64{closestOnSegment(p, b, c), closestOnSegment(p, a, c)} {
			if norm(sub(p, q)) < norm(sub(p, best)) {
				best = q
			}
		}
		return best
	}
	v, w := vb/den, vc/den
	return add(a, add(scale(ab, v), scale(ac, w)))
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func add(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func scale(a []float64, k float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] * k
	}
	return out
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func cross(a, b []float64) []float64 {
	return []float64{a[1]*b[2] - a[2]*b[1], a[2]*b[0] - a[0]*b[2], a[0]*b[1] - a[1]*b[0]}
}
