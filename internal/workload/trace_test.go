package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/embedding"
)

func TestTraceRoundTrip(t *testing.T) {
	s, err := NewPowerLawSampler(1000, 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	mapping := NewShuffledMapping(1000, 3)
	stats := embedding.NewAccessStats(1000)
	rng := NewRNG(7)
	for i := 0; i < 50_000; i++ {
		if err := stats.Record(mapping.RowOf(s.SampleRank(rng))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	buf.WriteString("row,count\n")
	for row, count := range stats.Counts {
		if count > 0 {
			fmt.Fprintf(&buf, "%d,%d\n", row, count)
		}
	}
	back, err := ReadTrace(&buf, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if back.Total != stats.Total {
		t.Fatalf("total %d != %d", back.Total, stats.Total)
	}
	for i := range stats.Counts {
		if back.Counts[i] != stats.Counts[i] {
			t.Fatalf("row %d: %d != %d", i, back.Counts[i], stats.Counts[i])
		}
	}
	// Locality survives the round trip.
	if back.LocalityP() != stats.LocalityP() {
		t.Fatal("locality changed through trace IO")
	}
}

func TestReadTraceValidation(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"bad header", "a,b\n1,2\n"},
		{"bad row", "row,count\nx,2\n"},
		{"bad count", "row,count\n1,y\n"},
		{"row out of range", "row,count\n100,2\n"},
		{"negative count", "row,count\n1,-2\n"},
		{"wrong fields", "row,count\n1\n"},
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c.csv), 10); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if _, err := ReadTrace(strings.NewReader(""), 10); err == nil {
		t.Error("empty input: want header error")
	}
}

func TestReadTraceAccumulatesDuplicates(t *testing.T) {
	in := "row,count\n3,5\n3,7\n"
	stats, err := ReadTrace(strings.NewReader(in), 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counts[3] != 12 || stats.Total != 12 {
		t.Fatalf("counts=%v total=%d", stats.Counts, stats.Total)
	}
}
