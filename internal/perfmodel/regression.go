package perfmodel

import (
	"fmt"
	"math"
	"sort"
)

// ProfilePoint is one sample of the Fig. 9 profiling sweep: the measured
// QPS of an embedding-shard gather operator when x vectors are gathered
// per input.
type ProfilePoint struct {
	Gathers float64 // x: vectors gathered per input
	QPS     float64
}

// SweepGatherQPS performs the paper's one-time profiling of embedding
// gather operations (Sec. IV-B, Fig. 9): it sweeps the number of vectors
// gathered per input and records the sustained QPS for the given embedding
// dimension and query batch size. In this reproduction the "measurement"
// queries the calibrated hardware profile, exactly as the real system
// would stress-test a shard container.
func (p *Profile) SweepGatherQPS(batchSize, dim int, gathers []int) []ProfilePoint {
	out := make([]ProfilePoint, 0, len(gathers))
	for _, x := range gathers {
		if x < 0 {
			continue
		}
		out = append(out, ProfilePoint{
			Gathers: float64(x),
			QPS:     p.ShardQPS(batchSize, float64(x), dim),
		})
	}
	return out
}

// DefaultSweep returns the gather counts profiled by default: 0..8 densely,
// then a geometric tail to maxGathers.
func DefaultSweep(maxGathers int) []int {
	var xs []int
	for x := 0; x <= 8 && x <= maxGathers; x++ {
		xs = append(xs, x)
	}
	for x := 12; x <= maxGathers; x = x * 3 / 2 {
		xs = append(xs, x)
	}
	if len(xs) == 0 || xs[len(xs)-1] != maxGathers {
		xs = append(xs, maxGathers)
	}
	return xs
}

// QPSModel estimates shard QPS as a function of n_s, the average number of
// vectors gathered from the shard per input (Algorithm 1 line 10's QPS(x)).
type QPSModel interface {
	QPS(ns float64) float64
	// Name identifies the regression family for reporting.
	Name() string
}

// PiecewiseLinearQPS interpolates the *latency* (1/QPS) linearly between
// profiled points. Because shard latency is affine in the gather count,
// this regression is exact on profile-generated data and well-behaved on
// noisy measurements; it is the default model ElasticRec builds from the
// profiling lookup table.
type PiecewiseLinearQPS struct {
	xs  []float64 // ascending gather counts
	lat []float64 // seconds per query at xs[i]
}

// NewPiecewiseLinearQPS fits the model to profiled points. At least two
// distinct points are required.
func NewPiecewiseLinearQPS(points []ProfilePoint) (*PiecewiseLinearQPS, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("perfmodel: piecewise regression needs >= 2 points, got %d", len(points))
	}
	sorted := make([]ProfilePoint, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Gathers < sorted[j].Gathers })
	m := &PiecewiseLinearQPS{}
	for i, pt := range sorted {
		if pt.QPS <= 0 {
			return nil, fmt.Errorf("perfmodel: non-positive QPS %v at x=%v", pt.QPS, pt.Gathers)
		}
		if i > 0 && pt.Gathers == sorted[i-1].Gathers {
			continue // drop duplicate x
		}
		m.xs = append(m.xs, pt.Gathers)
		m.lat = append(m.lat, 1/pt.QPS)
	}
	if len(m.xs) < 2 {
		return nil, fmt.Errorf("perfmodel: piecewise regression needs >= 2 distinct points")
	}
	return m, nil
}

// Name implements QPSModel.
func (m *PiecewiseLinearQPS) Name() string { return "piecewise-linear" }

// QPS implements QPSModel, extrapolating linearly beyond the profiled
// range (clamped so latency never goes below the smallest observed value).
func (m *PiecewiseLinearQPS) QPS(ns float64) float64 {
	n := len(m.xs)
	var lat float64
	switch {
	case ns <= m.xs[0]:
		lat = extrapolate(m.xs[0], m.lat[0], m.xs[1], m.lat[1], ns)
		if lat < m.lat[0]*1e-3 {
			lat = m.lat[0] * 1e-3
		}
	case ns >= m.xs[n-1]:
		lat = extrapolate(m.xs[n-2], m.lat[n-2], m.xs[n-1], m.lat[n-1], ns)
	default:
		i := sort.SearchFloat64s(m.xs, ns)
		if m.xs[i] == ns {
			lat = m.lat[i]
		} else {
			lat = extrapolate(m.xs[i-1], m.lat[i-1], m.xs[i], m.lat[i], ns)
		}
	}
	if lat <= 0 {
		lat = m.lat[0]
	}
	return 1 / lat
}

func extrapolate(x0, y0, x1, y1, x float64) float64 {
	if x1 == x0 {
		return y0
	}
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// LogLogQPS is the ablation alternative: least-squares fit of
// log(QPS) = a + b*log(1+ns). It is smoother but biased at the extremes,
// which the ablation benchmark quantifies.
type LogLogQPS struct {
	a, b float64
}

// NewLogLogQPS fits the log-log model to the profiled points.
func NewLogLogQPS(points []ProfilePoint) (*LogLogQPS, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("perfmodel: log-log regression needs >= 2 points, got %d", len(points))
	}
	var sx, sy, sxx, sxy float64
	n := 0
	for _, p := range points {
		if p.QPS <= 0 {
			continue
		}
		x := math.Log1p(p.Gathers)
		y := math.Log(p.QPS)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 {
		return nil, fmt.Errorf("perfmodel: log-log regression needs >= 2 valid points")
	}
	den := float64(n)*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return nil, fmt.Errorf("perfmodel: degenerate log-log fit (all x equal)")
	}
	b := (float64(n)*sxy - sx*sy) / den
	a := (sy - b*sx) / float64(n)
	return &LogLogQPS{a: a, b: b}, nil
}

// Name implements QPSModel.
func (m *LogLogQPS) Name() string { return "log-log" }

// QPS implements QPSModel.
func (m *LogLogQPS) QPS(ns float64) float64 {
	if ns < 0 {
		ns = 0
	}
	return math.Exp(m.a + m.b*math.Log1p(ns))
}

// BuildQPSModel runs the default profiling sweep for (batchSize, dim) up
// to maxGathers vectors per input and fits the default piecewise-linear
// regression — the complete pre-deployment profiling step of Fig. 7's
// "Deployment Cost Estimator" box.
func (p *Profile) BuildQPSModel(batchSize, dim, maxGathers int) (QPSModel, error) {
	points := p.SweepGatherQPS(batchSize, dim, DefaultSweep(maxGathers))
	return NewPiecewiseLinearQPS(points)
}

// MeanAbsRelError reports the mean |pred-true|/true of a QPS model against
// ground-truth points; used by the regression ablation.
func MeanAbsRelError(m QPSModel, truth []ProfilePoint) float64 {
	if len(truth) == 0 {
		return 0
	}
	var sum float64
	for _, p := range truth {
		if p.QPS <= 0 {
			continue
		}
		sum += math.Abs(m.QPS(p.Gathers)-p.QPS) / p.QPS
	}
	return sum / float64(len(truth))
}
