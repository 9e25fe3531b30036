// Package serving is the epochpin fixture: a miniature Router whose
// AcquireModel method pins an epoch, plus the release() method
// the pass requires on every path. The pass matches the real routing
// layer by package name, so this stand-in exercises it end to end.
package serving

import "errors"

// RoutingTable is the pinned epoch handle.
type RoutingTable struct{ pinned bool }

// release unpins the epoch.
func (rt *RoutingTable) release() { rt.pinned = false }

// Router hands out pinned routing tables.
type Router struct{ rt RoutingTable }

// AcquireModel pins the epoch of one model's table.
func (r *Router) AcquireModel(model string) (*RoutingTable, error) {
	if model == "" {
		return nil, errors.New("no model")
	}
	return &r.rt, nil
}
