package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesDefinitions pins BENCHMARK.json to the metric
// tables the harness emits from.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b := loadBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(names), len(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d metrics in BENCHMARK.json, %d defined", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, defined %s/%s/%s", i,
				got.Name, got.Unit, got.Better, d.Name, d.Unit, d.Better)
		}
	}
	layers := perLayer()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("per_layer: %d metrics in BENCHMARK.json, %d defined", len(b.PerLayer), len(layers))
	}
	for i, d := range layers {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %s/%s/%s, defined %s/%s/%s", i,
				got.Name, got.Unit, got.Better, d.Name, d.Unit, d.Better)
		}
	}
}

// TestQuickWorkloads runs every workload, held-out ones too, at toy
// size, untraced and traced, and checks that each metric BENCHMARK.json names is emitted
// with its unit; then it runs each against a deliberately wrong ground
// truth, which must raise the failed share of ops.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live clusters and runs the experiment registry")
	}
	b := loadBenchmark(t)
	for _, name := range allWorkloadNames() {
		run, ok := workloads[name]
		if !ok {
			run = heldOut[name]
		}
		t.Run(name, func(t *testing.T) {
			var right float64
			for _, traced := range []bool{false, true} {
				rep, err := run(options{Seed: 3, Seconds: 0.3, Traced: traced, Size: toySize})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if rep.Attempted == 0 {
					t.Fatalf("traced=%v: no ops attempted", traced)
				}
				if !traced {
					right = rep.failRatio()
				}
				metrics := rep.result(traced)["metrics"].(map[string]metricValue)
				check := func(name, unit string) {
					m, ok := metrics[name]
					if !ok {
						t.Errorf("traced=%v: metric %s not emitted", traced, name)
					} else if m.Unit != unit {
						t.Errorf("traced=%v: metric %s unit %q, BENCHMARK.json says %q", traced, name, m.Unit, unit)
					}
				}
				if traced {
					for _, d := range b.PerLayer {
						check(d.Name, d.Unit)
					}
					continue
				}
				for _, d := range b.EndToEnd {
					check(d.Name, d.Unit)
					if metrics[d.Name].Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, metrics[d.Name].Value)
					}
				}
			}
			rep, err := run(options{Seed: 3, Seconds: 0.3, WrongTruth: true, Size: toySize})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failRatio() <= right {
				t.Errorf("a wrong ground truth left fail_ratio at %v (right truth: %v, %d ops)",
					rep.failRatio(), right, rep.Attempted)
			}
		})
	}
}
