// Package cluster is the Kubernetes substrate: nodes with finite CPU,
// memory and GPU capacity, pods with resource requests, a first-fit
// bin-packing scheduler, deployments with desired/ready replica counts and
// cold-start delays, and Horizontal Pod Autoscaler controllers with the
// two target styles the paper configures (per-replica QPS thresholds for
// sparse shards, latency thresholds at 65% of SLA for dense shards,
// Sec. IV-D).
package cluster

import (
	"fmt"
	"time"
)

// ResourceSpec is a pod resource request or node capacity.
type ResourceSpec struct {
	CPUMilli int64 // millicores
	MemBytes int64
	GPUs     int
}

// Add returns r + other.
func (r ResourceSpec) Add(other ResourceSpec) ResourceSpec {
	return ResourceSpec{
		CPUMilli: r.CPUMilli + other.CPUMilli,
		MemBytes: r.MemBytes + other.MemBytes,
		GPUs:     r.GPUs + other.GPUs,
	}
}

// Sub returns r - other.
func (r ResourceSpec) Sub(other ResourceSpec) ResourceSpec {
	return ResourceSpec{
		CPUMilli: r.CPUMilli - other.CPUMilli,
		MemBytes: r.MemBytes - other.MemBytes,
		GPUs:     r.GPUs - other.GPUs,
	}
}

// Fits reports whether a request r fits within the free capacity.
func (r ResourceSpec) Fits(free ResourceSpec) bool {
	return r.CPUMilli <= free.CPUMilli && r.MemBytes <= free.MemBytes && r.GPUs <= free.GPUs
}

// Validate rejects negative requests.
func (r ResourceSpec) Validate() error {
	if r.CPUMilli < 0 || r.MemBytes < 0 || r.GPUs < 0 {
		return fmt.Errorf("cluster: negative resource spec %+v", r)
	}
	return nil
}

// String renders the spec compactly.
func (r ResourceSpec) String() string {
	return fmt.Sprintf("cpu=%dm mem=%.2fGB gpu=%d", r.CPUMilli, float64(r.MemBytes)/(1<<30), r.GPUs)
}

// PodPhase is the lifecycle state of a pod.
type PodPhase string

// Pod lifecycle phases (a deliberately reduced subset of Kubernetes').
const (
	PodStarting    PodPhase = "Starting"    // placed, loading parameters
	PodReady       PodPhase = "Ready"       // serving
	PodTerminating PodPhase = "Terminating" // draining before removal
)

// Pod is one container replica.
type Pod struct {
	Name       string
	Deployment string
	Resources  ResourceSpec
	Node       string // assigned node name, "" while pending
	Phase      PodPhase
	// ReadyAt is the virtual time the pod finishes cold start.
	ReadyAt time.Duration
}

// Node is one physical server.
type Node struct {
	Name     string
	Capacity ResourceSpec
	alloc    ResourceSpec
	pods     map[string]*Pod
}

// NewNode creates an empty node.
func NewNode(name string, capacity ResourceSpec) *Node {
	return &Node{Name: name, Capacity: capacity, pods: make(map[string]*Pod)}
}

// Free returns the unallocated capacity.
func (n *Node) Free() ResourceSpec { return n.Capacity.Sub(n.alloc) }

// Allocated returns the currently reserved resources.
func (n *Node) Allocated() ResourceSpec { return n.alloc }

// PodCount returns the number of pods placed on the node.
func (n *Node) PodCount() int { return len(n.pods) }

// place reserves resources for the pod; the caller checked Fits.
func (n *Node) place(p *Pod) {
	n.alloc = n.alloc.Add(p.Resources)
	n.pods[p.Name] = p
	p.Node = n.Name
}

// release frees the pod's resources.
func (n *Node) release(p *Pod) {
	if _, ok := n.pods[p.Name]; !ok {
		return
	}
	n.alloc = n.alloc.Sub(p.Resources)
	delete(n.pods, p.Name)
	p.Node = ""
}
