package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// printed round-trips a result through the JSON line main prints.
func printed(t *testing.T, res *result) result {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out result
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSelfTest runs every workload at tiny corpus sizes, untraced and
// traced, and requires a correct result that prints every metric
// BENCHMARK.json names, with its unit.
func TestSelfTest(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, _, err := run(options{workload: w.Name, seed: 7, seconds: 1, trace: trace, tiny: true, dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				out := printed(t, res)
				if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
					t.Fatalf("result correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestGateCatchesMissingEpisode removes one expected episode from the
// truth the runs compare against; every workload must then fail its
// correctness gate.
func TestGateCatchesMissingEpisode(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, _, err := run(options{workload: name, seed: 7, seconds: 1, tiny: true, dropTruth: true, dir: t.TempDir()})
			if !errors.Is(err, errMismatch) {
				t.Fatalf("run with one truth episode removed: err = %v, want a correctness mismatch", err)
			}
			if res == nil || res.Correct {
				t.Fatalf("run with one truth episode removed reported correct")
			}
		})
	}
}
