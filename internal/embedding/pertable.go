package embedding

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachTable runs fn(t) for every table index t in [0, n) and returns
// once all have finished. Tables are independent, so they run concurrently
// on at most GOMAXPROCS goroutines, the caller's included. The error
// returned is the lowest-numbered failing table's, so it does not depend
// on scheduling; every table runs even when another fails.
func ForEachTable(n int, fn func(t int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			t := int(next.Add(1)) - 1
			if t >= n {
				return
			}
			errs[t] = fn(t)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(n, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
