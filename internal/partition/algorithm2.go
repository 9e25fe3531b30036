package partition

import (
	"fmt"
	"math"
)

// CostFunc returns the expected deployment cost of a shard holding sorted
// rows [lo, hi). Algorithm 2 treats it as a black box, which is also how
// the Fig. 10 worked example (with its toy (j-i+1)²/i cost) plugs in.
type CostFunc func(lo, hi int64) float64

// Plan is a table partitioning: Boundaries[i] is the exclusive end row of
// shard i over the hotness-sorted table, so shard i spans
// [Boundaries[i-1], Boundaries[i]) with Boundaries[-1] == 0. The last
// boundary equals the table's row count. Cost is the estimator's expected
// memory for the plan, in the CostFunc's unit (bytes for Algorithm 1).
type Plan struct {
	Boundaries []int64
	Cost       float64
}

// NumShards returns the shard count.
func (p Plan) NumShards() int { return len(p.Boundaries) }

// Rows returns the total rows covered.
func (p Plan) Rows() int64 {
	if len(p.Boundaries) == 0 {
		return 0
	}
	return p.Boundaries[len(p.Boundaries)-1]
}

// ShardRange returns shard i's [lo, hi) row range.
func (p Plan) ShardRange(i int) (lo, hi int64) {
	if i > 0 {
		lo = p.Boundaries[i-1]
	}
	return lo, p.Boundaries[i]
}

// Validate checks the boundaries are strictly increasing and positive.
func (p Plan) Validate() error {
	if len(p.Boundaries) == 0 {
		return fmt.Errorf("partition: empty plan")
	}
	prev := int64(0)
	for i, b := range p.Boundaries {
		if b <= prev {
			return fmt.Errorf("partition: boundary %d (%d) not increasing past %d", i, b, prev)
		}
		prev = b
	}
	return nil
}

// String renders the plan in the paper's partition-point notation.
func (p Plan) String() string {
	return fmt.Sprintf("plan%v cost=%.4g", p.Boundaries, p.Cost)
}

// Partitioner runs Algorithm 2: dynamic programming over candidate shard
// boundaries, memoizing Mem[numShards][endGroup].
//
// The DP operates on row groups of Granularity rows rather than single
// rows: with 20M-row tables an exact per-row DP would evaluate ~10^14
// sub-problems, while a few hundred groups capture the power-law structure
// (the paper reports 18 s for 20M rows, which similarly implies a bounded
// candidate set). Granularity 1 reproduces the exact per-row algorithm and
// is what the Fig. 10 unit test uses; the granularity/quality trade-off is
// quantified by the DP-granularity ablation bench.
type Partitioner struct {
	// MaxShards is S_max, the largest shard count explored (default 16).
	MaxShards int
	// Granularity is the row-group width; 0 selects
	// ceil(rows/DefaultGroups).
	Granularity int64
}

// DefaultGroups is the default number of DP candidate boundaries.
const DefaultGroups = 512

// DefaultMaxShards is the default S_max.
const DefaultMaxShards = 16

func (pt *Partitioner) maxShards() int {
	if pt.MaxShards <= 0 {
		return DefaultMaxShards
	}
	return pt.MaxShards
}

func (pt *Partitioner) granularity(rows int64) int64 {
	if pt.Granularity > 0 {
		return pt.Granularity
	}
	g := (rows + DefaultGroups - 1) / DefaultGroups
	if g < 1 {
		g = 1
	}
	return g
}

// Partition finds the plan minimising total cost over all shard counts
// 1..MaxShards (Algorithm 2 line 20: the smallest Mem value across the
// whole design space).
func (pt *Partitioner) Partition(rows int64, cost CostFunc) (Plan, error) {
	return pt.run(rows, cost, 0)
}

// PartitionFixedShards finds the optimal plan with exactly numShards
// shards — the knob behind the Fig. 12(d) manual shard-count sweep.
func (pt *Partitioner) PartitionFixedShards(rows int64, numShards int, cost CostFunc) (Plan, error) {
	if numShards <= 0 {
		return Plan{}, fmt.Errorf("partition: numShards must be positive, got %d", numShards)
	}
	return pt.run(rows, cost, numShards)
}

// run executes the DP. fixed == 0 searches all shard counts; otherwise the
// plan with exactly `fixed` shards is returned.
func (pt *Partitioner) run(rows int64, cost CostFunc, fixed int) (Plan, error) {
	if rows <= 0 {
		return Plan{}, fmt.Errorf("partition: rows must be positive, got %d", rows)
	}
	if cost == nil {
		return Plan{}, fmt.Errorf("partition: nil cost function")
	}
	gran := pt.granularity(rows)
	// Candidate boundaries: bnd[i] = min(i*gran, rows), i = 0..G.
	groups := int((rows + gran - 1) / gran)
	bnd := make([]int64, groups+1)
	for i := 0; i <= groups; i++ {
		b := int64(i) * gran
		if b > rows {
			b = rows
		}
		bnd[i] = b
	}
	smax := pt.maxShards()
	if fixed > 0 {
		smax = fixed
	}
	if smax > groups {
		smax = groups
	}
	if fixed > groups {
		// Cannot produce more non-empty shards than candidate groups;
		// fall back to one row-group per shard by refining granularity.
		return (&Partitioner{MaxShards: pt.MaxShards, Granularity: max(rows/int64(fixed), 1)}).
			run(rows, cost, fixed)
	}

	// mem[s][e]: minimal cost of splitting the first e groups into s
	// shards; choice[s][e]: the best split point m (shard s spans groups
	// (m, e]). Row s=0 is unused padding for clarity.
	mem := make([][]float64, smax+1)
	choice := make([][]int, smax+1)
	for s := 0; s <= smax; s++ {
		mem[s] = make([]float64, groups+1)
		choice[s] = make([]int, groups+1)
		for e := range mem[s] {
			mem[s][e] = math.Inf(1)
			choice[s][e] = -1
		}
	}
	for e := 1; e <= groups; e++ { // Algorithm 2 lines 2-4
		mem[1][e] = cost(0, bnd[e])
		choice[1][e] = 0
	}
	for s := 2; s <= smax; s++ { // lines 5-19
		for e := s; e <= groups; e++ {
			best := math.Inf(1)
			bestM := -1
			for m := s - 1; m < e; m++ { // line 8: last shard is groups (m, e]
				prev := mem[s-1][m]
				if math.IsInf(prev, 1) {
					continue
				}
				cur := prev + cost(bnd[m], bnd[e])
				if cur < best {
					best = cur
					bestM = m
				}
			}
			mem[s][e] = best
			choice[s][e] = bestM
		}
	}

	bestS := -1
	bestCost := math.Inf(1)
	if fixed > 0 {
		bestS = fixed
		bestCost = mem[fixed][groups]
	} else {
		for s := 1; s <= smax; s++ { // line 20
			if mem[s][groups] < bestCost {
				bestCost = mem[s][groups]
				bestS = s
			}
		}
	}
	if bestS < 0 || math.IsInf(bestCost, 1) {
		return Plan{}, fmt.Errorf("partition: no feasible plan (rows=%d, smax=%d)", rows, smax)
	}

	// Backtrack partition points.
	boundaries := make([]int64, bestS)
	e := groups
	for s := bestS; s >= 1; s-- {
		boundaries[s-1] = bnd[e]
		e = choice[s][e]
		if e < 0 && s > 1 {
			return Plan{}, fmt.Errorf("partition: backtracking failed at shard %d", s)
		}
	}
	return Plan{Boundaries: boundaries, Cost: bestCost}, nil
}
