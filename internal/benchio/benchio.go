// Package benchio defines the schema of the scenario artifacts
// (BENCH_scenario_<name>.json) and the load/write helpers around it. It is
// the one contract between its one producer, internal/scenario, which
// emits a row per scenario run, model and phase, and its one consumer,
// cmd/scenarioguard, which diffs fresh artifacts against the checked-in
// baselines. Performance numbers proper live elsewhere: benchmark/ has its
// own output format (see BENCHMARK.json).
package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Row is one scenario measurement, flattened. Fields the producer doesn't
// measure stay zero and (mostly) omit from the JSON; the guard reads the
// subset it gates on.
type Row struct {
	// Name identifies the measurement: "Scenario_<name>", optionally
	// with a "/model=NAME" or "/phase=NAME" suffix.
	Name string `json:"name"`
	// Model is the DLRM variant the row measures ("" for aggregate
	// rows), so per-model rows can be filtered.
	Model string `json:"model,omitempty"`

	// QPS is achieved throughput: completed requests per measured
	// second.
	QPS float64 `json:"qps,omitempty"`
	// OfferedQPS is the load the driver offered over the measured
	// window; QPS/OfferedQPS < 1 means requests were shed or failed.
	OfferedQPS float64 `json:"offered_qps,omitempty"`

	// P50Ms/P95Ms/P99Ms are client-observed latency quantiles in
	// milliseconds over the measurement window. They are information
	// for whoever reads the artifact; the guard does not gate on them.
	P50Ms float64 `json:"p50_ms,omitempty"`
	P95Ms float64 `json:"p95_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
	// ErrorRate is failed requests / measured requests (0 when every
	// request succeeded — absent and zero mean the same thing).
	ErrorRate float64 `json:"error_rate,omitempty"`

	// Extra holds any remaining metrics by name (swap, replan, cache,
	// replica and shed counters).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// WriteRows writes rows to path as an indented JSON array (never null).
func WriteRows(path string, rows []Row) error {
	if rows == nil {
		rows = []Row{}
	}
	raw, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// LoadRows reads a BENCH_scenario_*.json artifact.
func LoadRows(path string) ([]Row, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []Row
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// ByName keys rows by Name (later duplicates win).
func ByName(rows []Row) map[string]Row {
	out := make(map[string]Row, len(rows))
	for _, r := range rows {
		out[r.Name] = r
	}
	return out
}

// MatchesAny reports whether name contains at least one of the
// comma-separated substrings in filter (an empty filter matches all).
func MatchesAny(name, filter string) bool {
	if filter == "" {
		return true
	}
	for _, sub := range strings.Split(filter, ",") {
		if sub != "" && strings.Contains(name, sub) {
			return true
		}
	}
	return false
}
