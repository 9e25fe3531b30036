package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestWinsFollowTheMetricsDirection counts strict wins per pair in the
// metric's better direction, over one workload's pairs only; ties are not
// wins.
func TestWinsFollowTheMetricsDirection(t *testing.T) {
	mk := func(vals ...float64) []run {
		var rs []run
		for i, v := range vals {
			r := run{Workload: "w", EndToEnd: map[string]struct {
				Value float64 `json:"value"`
			}{"x": {v}}}
			if i == 3 {
				r.Workload = "other"
			}
			rs = append(rs, r)
		}
		return rs
	}
	a, b := mk(5, 5, 5, 5), mk(4, 5, 6, 3)
	if won, pairs := wins("w", "x", "lower", a, b); won != 1 || pairs != 3 {
		t.Errorf("lower-is-better: %d/%d, want 1/3", won, pairs)
	}
	if won, pairs := wins("w", "x", "higher", a, b); won != 1 || pairs != 3 {
		t.Errorf("higher-is-better: %d/%d, want 1/3", won, pairs)
	}
}

// TestSetKeepsRunsWhole: a run read from a benchmark -out file is written
// back into a side's set unchanged, fields the pairing does not read
// included, so `benchmark -compare` sees the runs as the benchmark wrote
// them.
func TestSetKeepsRunsWhole(t *testing.T) {
	dir := t.TempDir()
	one := `{"runs":[{"workload":"gather_tcp","seed":7,"correct":true,"attempted":100,"failed":2,` +
		`"end_to_end":{"qps":{"value":1500,"unit":"req/s"}},"phases":[{"name":"closed"}]}]}`
	if err := os.WriteFile(filepath.Join(dir, "one.json"), []byte(one), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := readRun(filepath.Join(dir, "one.json"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "gather_tcp" || !r.Correct || r.Failed != 2 || r.EndToEnd["qps"].Value != 1500 {
		t.Fatalf("read %+v", r)
	}
	if err := writeSet(filepath.Join(dir, "set.json"), []run{r, r}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "set.json"))
	if err != nil {
		t.Fatal(err)
	}
	var set struct{ Runs []map[string]any }
	if err := json.Unmarshal(data, &set); err != nil {
		t.Fatal(err)
	}
	if len(set.Runs) != 2 || set.Runs[1]["attempted"] != 100.0 || set.Runs[1]["seed"] != 7.0 || set.Runs[1]["phases"] == nil {
		t.Errorf("set %s", data)
	}
}
