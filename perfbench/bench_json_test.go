package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program in
// step: every workload it names exists, and the end-to-end and per-layer
// metrics are the same, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bench struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		found := false
		for _, pw := range workloads {
			found = found || pw.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	e2e := endToEnd(1, 1, 1, 1, []float64{1})
	if len(bench.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json names %d end-to-end metrics, the program reports %d", len(bench.EndToEnd), len(e2e))
	}
	for _, m := range bench.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program reports %+v", m.Name, m.Unit, got)
		}
	}
	if len(bench.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the program reports %d", len(bench.PerLayer), len(layerUnits))
	}
	for _, m := range bench.PerLayer {
		if unit, ok := layerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %s (%s): program unit %q", m.Name, m.Unit, unit)
		}
	}
}
