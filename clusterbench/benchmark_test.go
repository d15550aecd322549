package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONNamesMatch keeps BENCHMARK.json and the program in
// step: the traced run reports exactly the per-layer metrics it lists,
// with the same units, and every listed workload exists.
func TestBenchmarkJSONNamesMatch(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	a := attribution{b: &bench{fleet: &fleet{}, w: workloads[0]}, rp: newReplayer(0, 1, 1, false)}
	got := a.metrics()
	var listed, emitted []string
	for _, m := range spec.PerLayer {
		listed = append(listed, m.Name)
		if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		emitted = append(emitted, name)
	}
	sort.Strings(listed)
	sort.Strings(emitted)
	if len(listed) != len(emitted) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run emits %d:\n%v\n%v", len(listed), len(emitted), listed, emitted)
	}
	for i := range listed {
		if listed[i] != emitted[i] {
			t.Fatalf("per-layer mismatch: listed %q, emitted %q", listed[i], emitted[i])
		}
	}
}
