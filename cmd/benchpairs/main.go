// Command benchpairs measures a change against a base commit with the
// repository's benchmark (benchmark/run.sh, BENCHMARK.json) in paired,
// interleaved runs. The base commit is extracted with `git archive` into a
// temporary directory outside the checkout, removed when the command ends;
// the checkout it is run from is the change. Each pair runs one seed on
// both trees in ABBA order (even pairs base first, odd pairs change first)
// so drift over the session lands on both sides alike. A same-session A/A
// set — the base against itself on further seeds — shows how far two
// identical trees read apart on this box. Every run lasts BENCHMARK.json's
// run_seconds.
//
// Each run's end-to-end metrics are printed as it lands. At the end both
// sides' runs are judged by the benchmark's own `-compare base change`
// (medians, ratio, spreads, the verdict against each metric's bound and
// the failed-share gate), and the command exits with its status. The A/A
// sets get the same table, for reference only, and a last table counts
// per (workload, metric) the pairs the change won and the A/A pairs the
// second run won. A run whose replies were not all correct stops the
// command.
//
// Usage (from the repository root; `make bench-pairs` wraps it):
//
//	benchpairs -base <ref> [-workloads gather_tcp,plan_swap] [-n 10] [-aa 2] [-seed 1001]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// spec is the part of BENCHMARK.json the pairing reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// run is what the pairing reads of one benchmark run's -out file; raw
// keeps the run whole for its side's set.
type run struct {
	Workload string `json:"workload"`
	Correct  bool   `json:"correct"`
	Failed   int    `json:"failed"`
	EndToEnd map[string]struct {
		Value float64 `json:"value"`
	} `json:"end_to_end"`
	raw json.RawMessage
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := mainErr(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func mainErr(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	base := fs.String("base", "", "git ref of the base commit (required)")
	workloads := fs.String("workloads", "gather_tcp", "comma-separated workloads")
	n := fs.Int("n", 10, "pairs per workload")
	aa := fs.Int("aa", 2, "A/A pairs (base against base) per workload")
	seed := fs.Uint64("seed", 1001, "seed of the first pair; pair i runs seed+i, A/A pair j seed+n+j")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *n < 1 || *aa < 0 {
		return errors.New("-base is required, -n must be at least 1 and -aa at least 0")
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	work, err := filepath.Abs(tmp)
	if err != nil {
		return err
	}
	baseDir := filepath.Join(work, "base")
	sha, err := extract(ctx, *base, baseDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "base %s (%s) in %s; change: the working tree; %d s per run\n", *base, sha, baseDir, sp.RunSeconds)

	sides := map[string][]run{}
	measure := func(dir, wl, side string, s uint64) error {
		r, err := runOnce(ctx, dir, wl, s, sp.RunSeconds, filepath.Join(work, "run.json"))
		if err != nil {
			return fmt.Errorf("%s %s seed %d: %w", wl, side, s, err)
		}
		sides[side] = append(sides[side], r)
		fmt.Fprintf(stdout, "%s seed %d %-6s %s\n", wl, s, side, brief(sp, r))
		return nil
	}
	wls := strings.Split(*workloads, ",")
	for _, wl := range wls {
		for i := 0; i < *n; i++ {
			s := *seed + uint64(i)
			order := [2][2]string{{baseDir, "base"}, {".", "change"}}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, o := range order {
				if err := measure(o[0], wl, o[1], s); err != nil {
					return err
				}
			}
		}
		for j := 0; j < *aa; j++ {
			s := *seed + uint64(*n+j)
			for _, side := range []string{"aa1", "aa2"} {
				if err := measure(baseDir, wl, side, s); err != nil {
					return err
				}
			}
		}
	}

	if *aa > 0 {
		fmt.Fprintln(stdout, "\nA/A: the base's second run of each seed against its first (reference only, not gated)")
		if err := compare(ctx, stdout, work, sides, "aa1", "aa2"); err != nil {
			fmt.Fprintln(stdout, "A/A:", err)
		}
	}
	fmt.Fprintln(stdout, "\npairs won (change over base; A/A: second run over first; ties are not wins)")
	fmt.Fprintf(stdout, "%-15s %-16s %8s %8s\n", "workload", "metric", "change", "A/A")
	for _, wl := range wls {
		for _, ms := range sp.EndToEnd {
			cw, cn := wins(wl, ms.Name, ms.Better, sides["base"], sides["change"])
			aw, an := wins(wl, ms.Name, ms.Better, sides["aa1"], sides["aa2"])
			fmt.Fprintf(stdout, "%-15s %-16s %8s %8s\n", wl, ms.Name, fmt.Sprintf("%d/%d", cw, cn), fmt.Sprintf("%d/%d", aw, an))
		}
	}
	fmt.Fprintln(stdout, "\nchange against base")
	return compare(ctx, stdout, work, sides, "base", "change")
}

// readSpec reads the run length and end-to-end metrics of the contract.
func readSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	if sp.RunSeconds < 1 {
		return sp, fmt.Errorf("%s: run_seconds is %d", path, sp.RunSeconds)
	}
	return sp, nil
}

// extract writes the tree of ref into dir through `git archive | tar -x`
// and returns the commit it resolved to.
func extract(ctx context.Context, ref, dir string) (string, error) {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--verify", ref+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("resolving %q: %w", ref, err)
	}
	sha := strings.TrimSpace(string(out))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return "", err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	archive := exec.CommandContext(ctx, "git", "archive", "--format=tar", sha)
	untar := exec.CommandContext(ctx, "tar", "-x", "-C", dir)
	archive.Stdout, untar.Stdin = w, r
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	errArchive := archive.Start()
	errUntar := untar.Start()
	// Only the children hold the pipe now, so either one exiting ends
	// the other.
	r.Close()
	w.Close()
	if errArchive == nil {
		errArchive = archive.Wait()
	}
	if errUntar == nil {
		errUntar = untar.Wait()
	}
	if err := errors.Join(errArchive, errUntar); err != nil {
		return "", fmt.Errorf("extracting %s: %w", sha, err)
	}
	return sha, nil
}

// runOnce runs one timed benchmark process in dir, its set written to out.
func runOnce(ctx context.Context, dir, workload string, seed uint64, seconds int, out string) (run, error) {
	cmd := exec.CommandContext(ctx, "sh", "benchmark/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0", "--out", out)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return run{}, err
	}
	r, err := readRun(out)
	if err != nil {
		return run{}, err
	}
	if !r.Correct {
		return run{}, errors.New("replies not all correct")
	}
	return r, nil
}

// readRun reads the one run of a benchmark -out file.
func readRun(path string) (run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return run{}, err
	}
	var set struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return run{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) != 1 {
		return run{}, fmt.Errorf("%s: %d runs, want 1", path, len(set.Runs))
	}
	r := run{raw: set.Runs[0]}
	if err := json.Unmarshal(r.raw, &r); err != nil {
		return run{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// writeSet writes runs as one benchmark -out file.
func writeSet(path string, runs []run) error {
	raws := make([]json.RawMessage, len(runs))
	for i, r := range runs {
		raws[i] = r.raw
	}
	data, err := json.Marshal(struct {
		Runs []json.RawMessage `json:"runs"`
	}{raws})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// compare writes sides a and b as sets under work and prints the change
// tree's `benchmark -compare` of them; its error is the comparison's
// failure.
func compare(ctx context.Context, stdout io.Writer, work string, sides map[string][]run, a, b string) error {
	pa, pb := filepath.Join(work, a+".json"), filepath.Join(work, b+".json")
	if err := writeSet(pa, sides[a]); err != nil {
		return err
	}
	if err := writeSet(pb, sides[b]); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "sh", "benchmark/run.sh", "-compare", pa, pb)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchmark -compare %s %s: %w", a, b, err)
	}
	return nil
}

// brief formats one run's end-to-end metrics in contract order.
func brief(sp spec, r run) string {
	parts := make([]string, 0, len(sp.EndToEnd)+1)
	for _, ms := range sp.EndToEnd {
		parts = append(parts, fmt.Sprintf("%s=%.4g", ms.Name, r.EndToEnd[ms.Name].Value))
	}
	return strings.Join(append(parts, fmt.Sprintf("failed=%d", r.Failed)), " ")
}

// wins counts, over the pairs of one workload, those in which b's run is
// strictly better than a's on one metric; a and b pair by index.
func wins(workload, metric, better string, a, b []run) (won, pairs int) {
	for k := range min(len(a), len(b)) {
		if a[k].Workload != workload {
			continue
		}
		pairs++
		va, vb := a[k].EndToEnd[metric].Value, b[k].EndToEnd[metric].Value
		if (better == "higher" && vb > va) || (better == "lower" && vb < va) {
			won++
		}
	}
	return won, pairs
}
