package workload

import (
	"fmt"
	"sync/atomic"
)

// DriftingSampler models hotness drift: it wraps a base sampler and
// rotates every drawn rank by a runtime-adjustable offset, so the set of
// physically hot rows migrates across the table while the distribution's
// shape (locality P, power-law tail) is preserved. This is the scenario
// ElasticRec's re-profiling loop exists for — a partition plan cut for
// yesterday's hot set strands cold rows in small hot shards and hot rows
// in big cold shards, and the per-shard utility skew (Fig. 14) widens
// until a repartition restores it.
//
// SetShift is safe to call while a query generator is sampling from
// another goroutine; each sample reads the current offset atomically.
type DriftingSampler struct {
	base  Sampler
	shift atomic.Int64
}

// NewDriftingSampler wraps base with an initial shift of 0 (identical to
// base until the first SetShift/Advance).
func NewDriftingSampler(base Sampler) (*DriftingSampler, error) {
	if base == nil || base.Rows() <= 0 {
		return nil, fmt.Errorf("workload: drifting sampler needs a non-empty base sampler")
	}
	return &DriftingSampler{base: base}, nil
}

// Rows implements Sampler.
func (d *DriftingSampler) Rows() int64 { return d.base.Rows() }

// SampleRank implements Sampler: the base rank rotated by the current
// shift (mod table size).
func (d *DriftingSampler) SampleRank(r *RNG) int64 {
	rank := d.base.SampleRank(r)
	rows := d.base.Rows()
	return (rank + d.shift.Load()%rows + rows) % rows
}

// SetShift sets the absolute rotation offset (may be negative).
func (d *DriftingSampler) SetShift(shift int64) { d.shift.Store(shift) }

// Advance moves the hot set by delta rows and returns the new offset.
func (d *DriftingSampler) Advance(delta int64) int64 { return d.shift.Add(delta) }

var _ Sampler = (*DriftingSampler)(nil)
