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

// MLP is a stack of fully-connected layers with ReLU between layers and a
// linear final layer.
type MLP struct {
	Layers []*Layer
	own    *Scratch // Forward's scratch
}

// Scratch holds the ping-pong activations one forward pass needs. Acquiring
// a private Scratch per goroutine (see model's scratch pool) lets many
// goroutines run ForwardScratch and ForwardBatch over the same read-only
// parameters concurrently — the mechanism behind the serving layer's
// batched, lock-free dense hot path. The buffers grow to the largest batch
// seen and are kept.
type Scratch struct {
	buf [2][]float32
}

// NewScratch allocates a scratch sized for one input of this MLP.
func (m *MLP) NewScratch() *Scratch {
	s := &Scratch{}
	s.grow(m.hiddenWidth())
	return s
}

// hiddenWidth is the widest activation between two layers: the most floats
// one sample needs in either ping-pong buffer.
func (m *MLP) hiddenWidth() int {
	w := 0
	for _, l := range m.Layers[:len(m.Layers)-1] {
		w = max(w, l.Out())
	}
	return w
}

func (s *Scratch) grow(n int) {
	for i := range s.buf {
		if cap(s.buf[i]) < n {
			s.buf[i] = make([]float32, n)
		}
	}
}

// New builds an MLP from the width sequence dims, e.g. [13 256 128 32]
// creates 13->256->128->32. seed makes initialisation deterministic.
func New(dims []int, seed uint64) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("mlp: need at least input and output widths, got %v", dims)
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		l, err := NewLayer(dims[i], dims[i+1], seed+uint64(i)*0x1234567)
		if err != nil {
			return nil, err
		}
		m.Layers = append(m.Layers, l)
	}
	m.own = m.NewScratch()
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
	return m.ForwardScratch(m.own, dst, x)
}

// ForwardScratch is Forward with caller-provided scratch: the parameters
// are only read, so any number of goroutines may call it concurrently as
// long as each brings its own Scratch (from NewScratch). It is the
// one-row case of ForwardBatch.
func (m *MLP) ForwardScratch(s *Scratch, dst, x tensor.Vector) error {
	return m.ForwardBatch(s, &tensor.Matrix{Rows: 1, Cols: len(dst), Data: dst}, &tensor.Matrix{Rows: 1, Cols: len(x), Data: x})
}

// ForwardBatch runs the stack on every row of x (batch x In()) and writes
// each result to the same row of dst (batch x Out()), bit-identical to
// ForwardScratch row by row: each layer is one tensor.MatMulBias* over the
// whole batch, so its weights stream through the cache once per batch
// rather than once per input.
func (m *MLP) ForwardBatch(s *Scratch, dst, x *tensor.Matrix) error {
	if x.Rows < 0 || x.Cols != m.In() {
		return fmt.Errorf("mlp: input %dx%d, want width %d", x.Rows, x.Cols, m.In())
	}
	if dst.Rows != x.Rows || dst.Cols != m.Out() {
		return fmt.Errorf("mlp: output %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, m.Out())
	}
	bs := x.Rows
	s.grow(bs * m.hiddenWidth())
	var act [2]tensor.Matrix
	in := x
	last := len(m.Layers) - 1
	for i, l := range m.Layers[:last] {
		out := &act[i%2]
		*out = tensor.Matrix{Rows: bs, Cols: l.Out(), Data: s.buf[i%2][:bs*l.Out()]}
		if err := tensor.MatMulBiasReLU(out, l.W, in, l.B); err != nil {
			return err
		}
		in = out
	}
	return tensor.MatMulBias(dst, m.Layers[last].W, in, m.Layers[last].B)
}

// Clone deep-copies the MLP (fresh scratch buffers, copied weights) so a
// replica can run forward passes concurrently with other replicas.
func (m *MLP) Clone() *MLP {
	out := &MLP{}
	for _, l := range m.Layers {
		out.Layers = append(out.Layers, &Layer{W: l.W.Clone(), B: l.B.Clone()})
	}
	out.own = out.NewScratch()
	return out
}
