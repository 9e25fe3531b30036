package repro_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestRefereeBuilds compiles and vets the benchmark/ module against the
// current internals. benchmark/ is a module of its own, so `go build ./...`
// and `go test ./...` from the root never see it: an internal/ change that
// removes or re-types a symbol it imports would otherwise pass tier-1 and
// fail every workload before the first request.
func TestRefereeBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module; skipped under -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("benchmark/ no longer builds against internal/ (%v):\n%s", err, out)
	}
}
