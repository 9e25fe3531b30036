// violations.go exercises every acquisition shape the epochpin pass
// must classify: leaks it reports, and releases/handoffs it must not.
package serving

import "errors"

func discards(r *Router) {
	r.AcquireModel("m") // want `\[epochpin\] acquired epoch is discarded`
}

func blankBound(r *Router) {
	_, _ = r.AcquireModel("m") // want `acquired epoch is discarded`
}

func earlyReturnLeak(r *Router, ready bool) error {
	rt, _ := r.AcquireModel("m")
	if !ready {
		return errors.New("not ready") // want `this return path drops the pin`
	}
	rt.release()
	return nil
}

func fallsOffEnd(r *Router) { // the leak is reported at the acquire below
	rt, _ := r.AcquireModel("m") // want `function can fall off the end`
	_ = rt.pinned
}

func nestedLeak(r *Router, retry bool) {
	if retry {
		rt, _ := r.AcquireModel("m") // want `no release or handoff follows the acquire`
		_ = rt.pinned
	}
}

func okDefer(r *Router, q []int) int {
	rt, _ := r.AcquireModel("m")
	defer rt.release()
	return len(q)
}

func okErrBranch(r *Router, model string) error {
	rt, err := r.AcquireModel(model)
	if err != nil {
		return err // exempt: the acquire failed, the table is nil
	}
	defer rt.release()
	return nil
}

func okAllBranches(r *Router, fast bool) int {
	rt, _ := r.AcquireModel("m")
	if fast {
		rt.release()
		return 1
	}
	rt.release()
	return 2
}

func okHandoff(r *Router) *RoutingTable {
	rt, _ := r.AcquireModel("m")
	return rt // the caller inherits the release obligation
}

func okGoroutineHandoff(r *Router, done chan struct{}) {
	rt, _ := r.AcquireModel("m")
	go func() {
		defer rt.release()
		<-done
	}()
}

func suppressedLeak(r *Router) {
	//lint:escape epochpin the drain-timeout path abandons the epoch on purpose
	rt, _ := r.AcquireModel("m")
	_ = rt.pinned
}
