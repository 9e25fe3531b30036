package embedding

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachTable checks that every table runs exactly once, that no more
// than GOMAXPROCS run at a time, and that the lowest-numbered failure is
// the one reported.
func TestForEachTable(t *testing.T) {
	if err := ForEachTable(0, func(int) error { return fmt.Errorf("ran") }); err != nil {
		t.Fatalf("no tables: %v", err)
	}
	const n = 64
	var runs [n]atomic.Int32
	var inFlight, peak atomic.Int32
	err := ForEachTable(n, func(tab int) error {
		cur := inFlight.Add(1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		runtime.Gosched()
		runs[tab].Add(1)
		inFlight.Add(-1)
		if tab == 41 || tab == 17 || tab == 60 {
			return fmt.Errorf("table %d failed", tab)
		}
		return nil
	})
	if err == nil || err.Error() != "table 17 failed" {
		t.Fatalf("err = %v, want the lowest-numbered failure (table 17)", err)
	}
	for tab := range runs {
		if got := runs[tab].Load(); got != 1 {
			t.Fatalf("table %d ran %d times", tab, got)
		}
	}
	if p, limit := peak.Load(), int32(runtime.GOMAXPROCS(0)); p > limit {
		t.Fatalf("%d tables ran at once, GOMAXPROCS is %d", p, limit)
	}
}
