package mlp

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestNewLayerValidation(t *testing.T) {
	if _, err := NewLayer(0, 4, 1); err == nil {
		t.Fatal("want error for zero input")
	}
	if _, err := NewLayer(4, 0, 1); err == nil {
		t.Fatal("want error for zero output")
	}
}

func TestLayerForwardHandChecked(t *testing.T) {
	l, err := NewLayer(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	copy(l.W.Data, []float32{1, 2, 3, 4})
	copy(l.B, []float32{10, 20})
	dst := make(tensor.Vector, 2)
	if err := l.Forward(dst, tensor.Vector{1, 1}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 13 || dst[1] != 27 {
		t.Fatalf("Forward = %v, want [13 27]", dst)
	}
}

func TestLayerAccounting(t *testing.T) {
	l, _ := NewLayer(3, 5, 1)
	if l.In() != 3 || l.Out() != 5 {
		t.Fatal("In/Out mismatch")
	}
}

func TestNewMLPValidation(t *testing.T) {
	if _, err := New([]int{4}, 1); err == nil {
		t.Fatal("want error for single width")
	}
	if _, err := New([]int{4, 0}, 1); err == nil {
		t.Fatal("want error for zero width")
	}
}

func TestMLPForwardAppliesReLUBetweenLayers(t *testing.T) {
	// Construct 1 -> 1 -> 1 with weights that force a negative hidden
	// value: ReLU clamps it, so the output must be the final bias.
	m, err := New([]int{1, 1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Layers[0].W.Data[0] = -5
	m.Layers[0].B[0] = 0
	m.Layers[1].W.Data[0] = 3
	m.Layers[1].B[0] = 7
	out := make(tensor.Vector, 1)
	if err := m.Forward(out, tensor.Vector{1}); err != nil {
		t.Fatal(err)
	}
	if out[0] != 7 {
		t.Fatalf("Forward = %v, want 7 (hidden clamped to 0)", out[0])
	}
	// No ReLU on the final layer: a negative output must pass through.
	m.Layers[0].W.Data[0] = 1
	m.Layers[1].W.Data[0] = -3
	m.Layers[1].B[0] = 0
	if err := m.Forward(out, tensor.Vector{1}); err != nil {
		t.Fatal(err)
	}
	if out[0] != -3 {
		t.Fatalf("Forward = %v, want -3 (linear final layer)", out[0])
	}
}

func TestMLPForwardShapeErrors(t *testing.T) {
	m, _ := New([]int{2, 3}, 1)
	if err := m.Forward(make(tensor.Vector, 3), make(tensor.Vector, 1)); err == nil {
		t.Fatal("want input shape error")
	}
	if err := m.Forward(make(tensor.Vector, 2), make(tensor.Vector, 2)); err == nil {
		t.Fatal("want output shape error")
	}
}

func TestMLPAccountingSumsLayers(t *testing.T) {
	m, _ := New([]int{13, 256, 128, 32}, 1)
	if m.In() != 13 || m.Out() != 32 {
		t.Fatal("In/Out mismatch")
	}
}

func TestMLPDeterministicInit(t *testing.T) {
	a, _ := New([]int{4, 8, 2}, 42)
	b, _ := New([]int{4, 8, 2}, 42)
	in := tensor.Vector{1, -1, 0.5, 2}
	oa := make(tensor.Vector, 2)
	ob := make(tensor.Vector, 2)
	if a.Forward(oa, in) != nil || b.Forward(ob, in) != nil {
		t.Fatal("forward failed")
	}
	if oa[0] != ob[0] || oa[1] != ob[1] {
		t.Fatal("same seed must reproduce outputs")
	}
}

func TestMLPCloneIndependentAndEquivalent(t *testing.T) {
	m, _ := New([]int{4, 8, 2}, 7)
	c := m.Clone()
	in := tensor.Vector{0.1, 0.2, 0.3, 0.4}
	om := make(tensor.Vector, 2)
	oc := make(tensor.Vector, 2)
	if m.Forward(om, in) != nil || c.Forward(oc, in) != nil {
		t.Fatal("forward failed")
	}
	if !tensor.AlmostEqual(om, oc, 0) {
		t.Fatal("clone must compute identical outputs")
	}
	// Mutating the clone must not affect the original.
	c.Layers[0].W.Data[0] += 100
	oc2 := make(tensor.Vector, 2)
	_ = c.Forward(oc2, in)
	om2 := make(tensor.Vector, 2)
	_ = m.Forward(om2, in)
	if !tensor.AlmostEqual(om, om2, 0) {
		t.Fatal("original changed after clone mutation")
	}
	if tensor.AlmostEqual(oc, oc2, 1e-9) {
		t.Fatal("clone mutation had no effect")
	}
}

func TestMLPOutputIsFinite(t *testing.T) {
	m, _ := New([]int{13, 512, 256, 32}, 3)
	in := make(tensor.Vector, 13)
	tensor.InitUniform(in, 1, 9)
	out := make(tensor.Vector, 32)
	if err := m.Forward(out, in); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("output[%d] = %v", i, v)
		}
	}
}
