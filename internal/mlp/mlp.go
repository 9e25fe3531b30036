// Package mlp implements the dense multi-layer-perceptron stacks of DLRM:
// the bottom MLP that embeds the continuous features and the top MLP that
// scores the feature-interaction output. Layers are fully connected with
// ReLU activations between layers; the final layer is linear (the model
// applies a sigmoid after the top MLP).
package mlp

import (
	"fmt"

	"repro/internal/tensor"
)

// Layer is a single fully-connected layer: y = W*x + b.
type Layer struct {
	W *tensor.Matrix
	B tensor.Vector
}

// NewLayer creates an in->out layer with deterministic Xavier weights.
func NewLayer(in, out int, seed uint64) (*Layer, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("mlp: invalid layer shape %d->%d", in, out)
	}
	w := tensor.NewMatrix(out, in)
	tensor.InitXavier(w, seed)
	b := make(tensor.Vector, out)
	tensor.InitUniform(b, 0.01, seed^0xabcdef)
	return &Layer{W: w, B: b}, nil
}

// In returns the input width.
func (l *Layer) In() int { return l.W.Cols }

// Out returns the output width.
func (l *Layer) Out() int { return l.W.Rows }

// Forward computes dst = W*x + b. dst must have length Out().
func (l *Layer) Forward(dst, x tensor.Vector) error {
	return tensor.MatVecBias(dst, l.W, x, l.B)
}

// FLOPs returns the multiply-accumulate cost of one forward pass through
// the layer for a single input (2 FLOPs per weight, plus the bias adds).
func (l *Layer) FLOPs() int64 {
	return 2*int64(l.W.Rows)*int64(l.W.Cols) + int64(l.W.Rows)
}

// SizeBytes returns the parameter footprint (weights + biases).
func (l *Layer) SizeBytes() int64 {
	return l.W.SizeBytes() + int64(len(l.B))*4
}

// MLP is a stack of fully-connected layers with ReLU between layers and a
// linear final layer.
type MLP struct {
	Layers []*Layer
	// scratch buffers, ping-pong between layers; sized to max layer width.
	buf0, buf1 tensor.Vector
}

// Scratch holds the ping-pong buffers one forward pass needs. Acquiring a
// private Scratch per goroutine (see model's scratch pool) lets many
// goroutines run ForwardScratch over the same read-only parameters
// concurrently — the mechanism behind the serving layer's batched,
// lock-free dense hot path.
type Scratch struct {
	buf0, buf1 tensor.Vector
}

// NewScratch allocates a scratch sized for this MLP's widest layer.
func (m *MLP) NewScratch() *Scratch {
	maxW := 0
	for _, l := range m.Layers {
		if l.In() > maxW {
			maxW = l.In()
		}
		if l.Out() > maxW {
			maxW = l.Out()
		}
	}
	return &Scratch{
		buf0: make(tensor.Vector, maxW),
		buf1: make(tensor.Vector, maxW),
	}
}

// New builds an MLP from the width sequence dims, e.g. [13 256 128 32]
// creates 13->256->128->32. seed makes initialisation deterministic.
func New(dims []int, seed uint64) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("mlp: need at least input and output widths, got %v", dims)
	}
	m := &MLP{}
	maxW := 0
	for _, d := range dims {
		if d > maxW {
			maxW = d
		}
	}
	for i := 0; i+1 < len(dims); i++ {
		l, err := NewLayer(dims[i], dims[i+1], seed+uint64(i)*0x1234567)
		if err != nil {
			return nil, err
		}
		m.Layers = append(m.Layers, l)
	}
	m.buf0 = make(tensor.Vector, maxW)
	m.buf1 = make(tensor.Vector, maxW)
	return m, nil
}

// In returns the input width of the stack.
func (m *MLP) In() int { return m.Layers[0].In() }

// Out returns the output width of the stack.
func (m *MLP) Out() int { return m.Layers[len(m.Layers)-1].Out() }

// Forward runs the stack on x and writes the result into dst (length
// Out()). ReLU is applied after every layer except the last.
//
// Forward reuses internal scratch buffers, so an MLP value must not be
// shared across goroutines without cloning. For concurrent forward passes
// over shared parameters use ForwardScratch with a per-goroutine Scratch.
func (m *MLP) Forward(dst, x tensor.Vector) error {
	return m.forward(m.buf0, m.buf1, dst, x)
}

// ForwardScratch is Forward with caller-provided scratch: the parameters
// are only read, so any number of goroutines may call it concurrently as
// long as each brings its own Scratch (from NewScratch).
func (m *MLP) ForwardScratch(s *Scratch, dst, x tensor.Vector) error {
	return m.forward(s.buf0, s.buf1, dst, x)
}

func (m *MLP) forward(buf0, buf1, dst, x tensor.Vector) error {
	if len(x) != m.In() {
		return fmt.Errorf("mlp: input length %d != %d", len(x), m.In())
	}
	if len(dst) != m.Out() {
		return fmt.Errorf("mlp: output length %d != %d", len(dst), m.Out())
	}
	cur := buf0[:len(x)]
	copy(cur, x)
	next := buf1
	last := len(m.Layers) - 1
	for _, l := range m.Layers[:last] {
		out := next[:l.Out()]
		if err := tensor.MatVecBiasReLU(out, l.W, cur, l.B); err != nil {
			return err
		}
		cur, next = out, cur[:cap(cur)]
	}
	return m.Layers[last].Forward(dst, cur)
}

// FLOPs returns the per-input forward cost of the whole stack.
func (m *MLP) FLOPs() int64 {
	var total int64
	for _, l := range m.Layers {
		total += l.FLOPs()
	}
	return total
}

// SizeBytes returns the total parameter footprint.
func (m *MLP) SizeBytes() int64 {
	var total int64
	for _, l := range m.Layers {
		total += l.SizeBytes()
	}
	return total
}

// Clone deep-copies the MLP (fresh scratch buffers, copied weights) so a
// replica can run forward passes concurrently with other replicas.
func (m *MLP) Clone() *MLP {
	out := &MLP{
		buf0: make(tensor.Vector, len(m.buf0)),
		buf1: make(tensor.Vector, len(m.buf1)),
	}
	for _, l := range m.Layers {
		out.Layers = append(out.Layers, &Layer{W: l.W.Clone(), B: l.B.Clone()})
	}
	return out
}
