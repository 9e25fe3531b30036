// Package core is the ElasticRec facade: it ties the substrates together
// behind a small API (plan a deployment, compare policies, run any of the
// paper's experiments) and is what cmd/elasticrec and the root bench_test.go
// figure rows call into. The live closed-loop experiments (repartition,
// multimodel, lifecycle) are internal/scenario specs run with the DP
// partitioner as their replanner.
//
// The heavy lifting lives in the focused packages: partition (Algorithms 1
// and 2), deploy (policy planners and the Kubernetes fleet/HPA model),
// perfmodel (hardware model), serving (live microservices), workload
// (traffic) and model (DLRM). core re-exposes the common flows so a
// downstream user rarely needs more than:
//
//	sys, _ := core.NewSystem(perfmodel.CPUOnly)
//	cmp, _ := sys.Compare(model.RM1(), 100)
//	fmt.Println(cmp.MemoryReductionX())
package core

import (
	"fmt"
	"strings"

	"repro/internal/deploy"
	"repro/internal/model"
	"repro/internal/perfmodel"
)

// System bundles a hardware profile with a planner — the entry point for
// planning and experiments.
type System struct {
	Profile *perfmodel.Profile
	Planner *deploy.Planner
}

// NewSystem creates a system for the platform with default planner knobs.
func NewSystem(platform perfmodel.Platform) (*System, error) {
	prof, err := perfmodel.ProfileFor(platform)
	if err != nil {
		return nil, err
	}
	return &System{Profile: prof, Planner: &deploy.Planner{Profile: prof}}, nil
}

// Comparison holds model-wise and ElasticRec plans for the same target.
type Comparison struct {
	ModelWise *deploy.Plan
	Elastic   *deploy.Plan
}

// Compare plans both policies at targetQPS.
func (s *System) Compare(cfg model.Config, targetQPS float64) (*Comparison, error) {
	mw, err := s.Planner.PlanModelWise(cfg, targetQPS)
	if err != nil {
		return nil, fmt.Errorf("core: model-wise plan: %w", err)
	}
	er, err := s.Planner.PlanElastic(cfg, targetQPS)
	if err != nil {
		return nil, fmt.Errorf("core: elastic plan: %w", err)
	}
	return &Comparison{ModelWise: mw, Elastic: er}, nil
}

// MemoryReductionX returns model-wise memory / ElasticRec memory — the
// headline metric of Figs. 13 and 16.
func (c *Comparison) MemoryReductionX() float64 {
	er := c.Elastic.TotalMemoryBytes()
	if er == 0 {
		return 0
	}
	return float64(c.ModelWise.TotalMemoryBytes()) / float64(er)
}

// ServerReductionX returns model-wise servers / ElasticRec servers (Figs.
// 15 and 18) for the system's node spec.
func (c *Comparison) ServerReductionX(node perfmodel.NodeSpec) (float64, error) {
	mw, err := c.ModelWise.Materialize(node)
	if err != nil {
		return 0, err
	}
	er, err := c.Elastic.Materialize(node)
	if err != nil {
		return 0, err
	}
	if er.NodesInUse() == 0 {
		return 0, fmt.Errorf("core: elastic plan needs zero servers")
	}
	return float64(mw.NodesInUse()) / float64(er.NodesInUse()), nil
}

// Table is a printable experiment result: the rows/series a paper figure
// or table reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries methodology remarks (substitutions, caveats).
	Notes []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
