package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/embedding"
)

// This file provides CSV trace import: per-row access counts recorded
// from a profiling window are read back as access statistics, standing in
// for the production access-history pipelines the paper cites ([37], [52]).
// The format is two columns: row ID, access count; rows with zero counts
// may be omitted.

// ReadTrace imports a CSV trace into access statistics for a table with
// the given row count. Unknown rows and malformed records are errors; the
// header line is required.
func ReadTrace(r io.Reader, rows int64) (*embedding.AccessStats, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if header[0] != "row" || header[1] != "count" {
		return nil, fmt.Errorf("workload: unexpected trace header %v", header)
	}
	stats := embedding.NewAccessStats(rows)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("workload: reading trace line %d: %w", line, err)
		}
		row, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad row %q", line, rec[0])
		}
		count, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad count %q", line, rec[1])
		}
		if row < 0 || row >= rows {
			return nil, fmt.Errorf("workload: trace line %d: row %d outside table of %d rows", line, row, rows)
		}
		if count < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative count %d", line, count)
		}
		stats.Counts[row] += count
		stats.Total += count
	}
	return stats, nil
}
