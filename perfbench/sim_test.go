package main

import (
	"math/rand"
	"testing"

	"chc/internal/core"
)

func TestN11ShapesStayBelowCacheLimit(t *testing.T) {
	s := simShape{n: 11, f: 2, d: 3}
	for _, seed := range n11Shapes {
		cfg := simConfig(rand.New(rand.NewSource(seed)), s)
		h0, err := core.InitialPolytope(cfg.Params, cfg.Inputs)
		if err != nil {
			t.Fatalf("shape %d: %v", seed, err)
		}
		if v := h0.NumVertices(); v > 22 {
			t.Errorf("shape %d: round-0 polytope has %d vertices, want at most 22", seed, v)
		}
	}
}
