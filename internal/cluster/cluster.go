package cluster

import (
	"fmt"
	"sort"
	"time"
)

// Cluster is the orchestration state: a pool of nodes and the pods
// scheduled onto them. A fixed-size cluster schedules onto the provisioned
// nodes only; an auto-provisioning cluster (the "how many servers do we
// need" mode behind Figs. 15 and 18) adds nodes of a template capacity
// whenever a pod does not fit.
type Cluster struct {
	nodes        []*Node
	pods         map[string]*Pod
	deployments  map[string]*Deployment
	autoTemplate *ResourceSpec // non-nil enables auto-provisioning
	nextNodeID   int
	nextPodID    int
}

// New creates a cluster with the given pre-provisioned nodes.
func New(nodes ...*Node) *Cluster {
	c := &Cluster{
		pods:        make(map[string]*Pod),
		deployments: make(map[string]*Deployment),
	}
	c.nodes = append(c.nodes, nodes...)
	return c
}

// NewAutoProvisioned creates a cluster that grows on demand with nodes of
// the template capacity — the capacity-planning mode used to count servers.
func NewAutoProvisioned(template ResourceSpec) *Cluster {
	c := New()
	t := template
	c.autoTemplate = &t
	return c
}

// NodesInUse returns the number of nodes hosting at least one pod — the
// server count of Figs. 15 and 18.
func (c *Cluster) NodesInUse() int {
	n := 0
	for _, node := range c.nodes {
		if node.PodCount() > 0 {
			n++
		}
	}
	return n
}

// AllocatedMemBytes sums the memory reserved by all scheduled pods.
func (c *Cluster) AllocatedMemBytes() int64 {
	var total int64
	for _, node := range c.nodes {
		total += node.Allocated().MemBytes
	}
	return total
}

// schedule places the pod on the first node with room, preferring the
// most-allocated node that still fits (best-fit-decreasing keeps server
// counts tight, mirroring the bin-packing the Kubernetes scheduler's
// default scoring approximates). Auto-provisioning clusters grow when
// nothing fits.
func (c *Cluster) schedule(p *Pod) error {
	if err := p.Resources.Validate(); err != nil {
		return err
	}
	candidates := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if p.Resources.Fits(n.Free()) {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) > 0 {
		sort.Slice(candidates, func(i, j int) bool {
			fi, fj := candidates[i].Free(), candidates[j].Free()
			if fi.MemBytes != fj.MemBytes {
				return fi.MemBytes < fj.MemBytes // tightest memory fit first
			}
			return candidates[i].Name < candidates[j].Name
		})
		candidates[0].place(p)
		return nil
	}
	if c.autoTemplate == nil {
		return fmt.Errorf("cluster: no node fits pod %s (%s)", p.Name, p.Resources)
	}
	if !p.Resources.Fits(*c.autoTemplate) {
		return fmt.Errorf("cluster: pod %s (%s) exceeds node template (%s)",
			p.Name, p.Resources, *c.autoTemplate)
	}
	c.nextNodeID++
	node := NewNode(fmt.Sprintf("node-%d", c.nextNodeID), *c.autoTemplate)
	c.nodes = append(c.nodes, node)
	node.place(p)
	return nil
}

// Deployment manages a replica set of identical pods.
type Deployment struct {
	Name      string
	Resources ResourceSpec
	// ColdStart is how long a new pod takes to become Ready
	// (parameter-load dominated; Sec. VI-D).
	ColdStart time.Duration

	pods []*Pod
}

// CreateDeployment registers a deployment and scales it to replicas pods
// at virtual time now.
func (c *Cluster) CreateDeployment(name string, res ResourceSpec, coldStart time.Duration, replicas int, now time.Duration) (*Deployment, error) {
	if _, exists := c.deployments[name]; exists {
		return nil, fmt.Errorf("cluster: deployment %q already exists", name)
	}
	d := &Deployment{Name: name, Resources: res, ColdStart: coldStart}
	c.deployments[name] = d
	if err := c.Scale(name, replicas, now); err != nil {
		return nil, err
	}
	return d, nil
}

// Deployment returns a registered deployment.
func (c *Cluster) Deployment(name string) (*Deployment, bool) {
	d, ok := c.deployments[name]
	return d, ok
}

// Scale adjusts a deployment to the desired replica count at virtual time
// now. Scale-ups create Starting pods that become Ready after ColdStart;
// scale-downs remove the newest pods first (they are least likely to be
// Ready, minimising serving disruption).
func (c *Cluster) Scale(name string, replicas int, now time.Duration) error {
	d, ok := c.deployments[name]
	if !ok {
		return fmt.Errorf("cluster: unknown deployment %q", name)
	}
	if replicas < 0 {
		return fmt.Errorf("cluster: negative replica count %d", replicas)
	}
	for len(d.pods) < replicas {
		c.nextPodID++
		p := &Pod{
			Name:       fmt.Sprintf("%s-%d", name, c.nextPodID),
			Deployment: name,
			Resources:  d.Resources,
			Phase:      PodStarting,
			ReadyAt:    now + d.ColdStart,
		}
		if err := c.schedule(p); err != nil {
			return err
		}
		c.pods[p.Name] = p
		d.pods = append(d.pods, p)
	}
	for len(d.pods) > replicas {
		p := d.pods[len(d.pods)-1]
		d.pods = d.pods[:len(d.pods)-1]
		c.removePod(p)
	}
	return nil
}

func (c *Cluster) removePod(p *Pod) {
	for _, n := range c.nodes {
		if n.Name == p.Node {
			n.release(p)
			break
		}
	}
	p.Phase = PodTerminating
	delete(c.pods, p.Name)
}

// Tick advances pod lifecycles to virtual time now (Starting -> Ready).
func (c *Cluster) Tick(now time.Duration) {
	for _, p := range c.pods {
		if p.Phase == PodStarting && now >= p.ReadyAt {
			p.Phase = PodReady
		}
	}
}

// Replicas returns desired (scheduled) and ready replica counts.
func (d *Deployment) Replicas() (desired, ready int) {
	desired = len(d.pods)
	for _, p := range d.pods {
		if p.Phase == PodReady {
			ready++
		}
	}
	return desired, ready
}
