// Package graph provides the intermediate representation (IR) used by the
// SERENITY scheduler: a directed acyclic graph of tensor-producing operations
// annotated with output shapes, data types, and memory-aliasing metadata.
//
// The IR mirrors the augmented graph described in Section 3 of the paper
// ("we augment this IR with the metadata of the nodes such as the operation
// type, input/output edges, input/output shapes, and memory cost"). Every
// node produces exactly one output tensor; multi-output constructs are
// expressed with Identity views.
package graph

import (
	"fmt"
)

// OpType enumerates the operation kinds understood by the scheduler, the
// rewriter, and the reference executor.
type OpType int

// Operation kinds. The Partial* and Buffer ops only appear after identity
// graph rewriting (Section 3.3): Buffer allocates a shared output tensor and
// Partial ops write disjoint slices of (or accumulate into) that buffer.
const (
	OpInput OpType = iota
	OpConv
	OpDepthwiseConv
	OpPointwiseConv
	OpSepConv // depthwise + pointwise fused (DARTS-style separable conv)
	OpDilConv // dilated separable conv
	OpAdd
	OpMul
	OpConcat
	OpReLU
	OpSigmoid
	OpMaxPool
	OpAvgPool
	OpGlobalAvgPool
	OpDense
	OpIdentity
	OpPad
	OpBuffer        // shared output allocation introduced by rewriting
	OpPartialConv   // channel-wise partitioned conv accumulating into a Buffer
	OpPartialDWConv // kernel-wise partitioned depthwise conv writing a Buffer slice
	OpOutput
	opTypeCount
)

var opNames = [...]string{
	OpInput:         "Input",
	OpConv:          "Conv",
	OpDepthwiseConv: "DepthwiseConv",
	OpPointwiseConv: "PointwiseConv",
	OpSepConv:       "SepConv",
	OpDilConv:       "DilConv",
	OpAdd:           "Add",
	OpMul:           "Mul",
	OpConcat:        "Concat",
	OpReLU:          "ReLU",
	OpSigmoid:       "Sigmoid",
	OpMaxPool:       "MaxPool",
	OpAvgPool:       "AvgPool",
	OpGlobalAvgPool: "GlobalAvgPool",
	OpDense:         "Dense",
	OpIdentity:      "Identity",
	OpPad:           "Pad",
	OpBuffer:        "Buffer",
	OpPartialConv:   "PartialConv",
	OpPartialDWConv: "PartialDWConv",
	OpOutput:        "Output",
}

// String returns the canonical operation name.
func (op OpType) String() string {
	if op < 0 || int(op) >= len(opNames) {
		return fmt.Sprintf("OpType(%d)", int(op))
	}
	return opNames[op]
}

// ParseOpType maps a canonical operation name back to its OpType.
func ParseOpType(s string) (OpType, error) {
	if op, ok := opFromBytes([]byte(s)); ok {
		return op, nil
	}
	return 0, fmt.Errorf("graph: unknown op type %q", s)
}

// opFromBytes is ParseOpType without the copy: the decoder looks up names
// that alias its input. It is a switch because that compiles to a search on
// length and then bytes; TestOpTypeStringRoundTrip holds it to opNames.
func opFromBytes(b []byte) (OpType, bool) {
	switch string(b) {
	case "Input":
		return OpInput, true
	case "Conv":
		return OpConv, true
	case "DepthwiseConv":
		return OpDepthwiseConv, true
	case "PointwiseConv":
		return OpPointwiseConv, true
	case "SepConv":
		return OpSepConv, true
	case "DilConv":
		return OpDilConv, true
	case "Add":
		return OpAdd, true
	case "Mul":
		return OpMul, true
	case "Concat":
		return OpConcat, true
	case "ReLU":
		return OpReLU, true
	case "Sigmoid":
		return OpSigmoid, true
	case "MaxPool":
		return OpMaxPool, true
	case "AvgPool":
		return OpAvgPool, true
	case "GlobalAvgPool":
		return OpGlobalAvgPool, true
	case "Dense":
		return OpDense, true
	case "Identity":
		return OpIdentity, true
	case "Pad":
		return OpPad, true
	case "Buffer":
		return OpBuffer, true
	case "PartialConv":
		return OpPartialConv, true
	case "PartialDWConv":
		return OpPartialDWConv, true
	case "Output":
		return OpOutput, true
	}
	return 0, false
}

// DType is the element type of a tensor.
type DType int

// Supported element types.
const (
	Float32 DType = iota
	Float16
	Int8
	UInt8
)

// Size returns the width of one element in bytes.
func (d DType) Size() int64 {
	switch d {
	case Float32:
		return 4
	case Float16:
		return 2
	case Int8, UInt8:
		return 1
	}
	return 4
}

// String returns the canonical dtype name.
func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Float16:
		return "float16"
	case Int8:
		return "int8"
	case UInt8:
		return "uint8"
	}
	return fmt.Sprintf("DType(%d)", int(d))
}

// ParseDType maps a canonical dtype name back to its DType.
func ParseDType(s string) (DType, error) {
	if dt, ok := dtypeFromBytes([]byte(s)); ok {
		return dt, nil
	}
	return 0, fmt.Errorf("graph: unknown dtype %q", s)
}

// dtypeFromBytes is ParseDType without the copy, as opFromBytes is for ops.
func dtypeFromBytes(b []byte) (DType, bool) {
	switch string(b) {
	case "float32":
		return Float32, true
	case "float16":
		return Float16, true
	case "int8":
		return Int8, true
	case "uint8":
		return UInt8, true
	}
	return 0, false
}

// Shape is a tensor shape in NHWC layout ([N, H, W, C]); rank-2 shapes
// ([N, F]) are used for Dense outputs.
type Shape []int

// Elems returns the number of elements in the shape (1 for a scalar).
func (s Shape) Elems() int64 {
	n := int64(1)
	for _, d := range s {
		n *= int64(d)
	}
	return n
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Channels returns the trailing (channel) dimension, or 0 for rank-0 shapes.
func (s Shape) Channels() int {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// String renders the shape as e.g. "[1 32 32 16]".
func (s Shape) String() string { return fmt.Sprint([]int(s)) }

// Padding selects the spatial padding policy of a convolution or pool.
type Padding int

// Padding policies.
const (
	PadSame Padding = iota
	PadValid
)

// String returns "same" or "valid".
func (p Padding) String() string {
	if p == PadValid {
		return "valid"
	}
	return "same"
}

// Attr carries per-node operation attributes. Zero values mean
// "not applicable". Only the fields relevant to the node's OpType are used.
type Attr struct {
	KernelH, KernelW int     // filter size (Conv/DW/Pool)
	StrideH, StrideW int     // strides (default 1 when zero)
	Pad              Padding // spatial padding policy
	Dilation         int     // dilation rate (default 1 when zero)
	Axis             int     // concat axis (default: channel axis)
	AliasOf          int     // node ID whose storage this node's output aliases; -1 if none
	ChanOffset       int     // channel offset of this node's slice within the aliased buffer
	InChannels       int     // input channel count consumed (Partial ops; weight accounting)
	Seed             int64   // provenance for generated nodes (debugging)
}

// Node is a single operation in the dataflow graph. A node produces exactly
// one output tensor of shape Shape and element type DType.
type Node struct {
	ID    int
	Name  string
	Op    OpType
	Shape Shape
	DType DType
	Preds []int // ordered operand node IDs
	Succs []int // consumer node IDs (maintained by Graph)
	Attr  Attr
}

// OutBytes returns the size of the node's output tensor in bytes. Nodes
// whose output aliases another node's storage (Attr.AliasOf >= 0) occupy no
// additional memory; the underlying Buffer node carries the allocation.
func (n *Node) OutBytes() int64 {
	if n.Attr.AliasOf >= 0 {
		return 0
	}
	return n.Shape.Elems() * n.DType.Size()
}

// StorageBytes returns the size of the node's backing storage, ignoring
// aliasing. For alias nodes this is the logical view size.
func (n *Node) StorageBytes() int64 {
	return n.Shape.Elems() * n.DType.Size()
}

// Graph is a DAG of Nodes. Node IDs are dense indices into Nodes.
type Graph struct {
	Name  string
	Nodes []*Node
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the number of edges in the graph.
func (g *Graph) NumEdges() int {
	n := 0
	for _, v := range g.Nodes {
		n += len(v.Preds)
	}
	return n
}

// Node returns the node with the given ID, or nil if out of range.
func (g *Graph) Node(id int) *Node {
	if id < 0 || id >= len(g.Nodes) {
		return nil
	}
	return g.Nodes[id]
}

// AddNode appends a node with the given operation, name, shape and
// predecessor IDs, returning its ID. Edges from each predecessor are
// recorded in both directions. AliasOf defaults to -1 (no aliasing).
func (g *Graph) AddNode(op OpType, name string, shape Shape, preds ...int) int {
	id := len(g.Nodes)
	n := &Node{
		ID:    id,
		Name:  name,
		Op:    op,
		Shape: shape.Clone(),
		DType: Float32,
		Attr:  Attr{AliasOf: -1},
	}
	g.Nodes = append(g.Nodes, n)
	for _, p := range preds {
		g.AddEdge(p, id)
	}
	return id
}

// AddEdge inserts a directed edge from -> to. Duplicate edges are allowed in
// the IR (a node may consume the same tensor twice); the scheduler treats
// consumption per distinct physical tensor.
func (g *Graph) AddEdge(from, to int) {
	f, t := g.Nodes[from], g.Nodes[to]
	t.Preds = append(t.Preds, from)
	f.Succs = append(f.Succs, to)
}

// Inputs returns the IDs of all OpInput nodes in ID order.
func (g *Graph) Inputs() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Op == OpInput {
			out = append(out, n.ID)
		}
	}
	return out
}

// Outputs returns the IDs of all nodes with no successors, in ID order.
func (g *Graph) Outputs() []int {
	var out []int
	for _, n := range g.Nodes {
		if len(n.Succs) == 0 {
			out = append(out, n.ID)
		}
	}
	return out
}

// Indegrees returns a slice mapping node ID to its number of predecessor
// edges (counting duplicates).
func (g *Graph) Indegrees() []int {
	in := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		in[n.ID] = len(n.Preds)
	}
	return in
}

// TotalActivationBytes returns the sum of all non-aliased output tensor
// sizes: an upper bound on any schedule's peak footprint.
func (g *Graph) TotalActivationBytes() int64 {
	var total int64
	for _, n := range g.Nodes {
		total += n.OutBytes()
	}
	return total
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{Name: g.Name, Nodes: make([]*Node, len(g.Nodes))}
	for i, n := range g.Nodes {
		c := *n
		c.Shape = n.Shape.Clone()
		c.Preds = append([]int(nil), n.Preds...)
		c.Succs = append([]int(nil), n.Succs...)
		out.Nodes[i] = &c
	}
	return out
}

// PhysRoot resolves the physical-storage root of node id by following
// AliasOf links. A Buffer node is its own root, as is any non-aliased node.
func (g *Graph) PhysRoot(id int) int {
	seen := 0
	for g.Nodes[id].Attr.AliasOf >= 0 {
		id = g.Nodes[id].Attr.AliasOf
		seen++
		if seen > len(g.Nodes) {
			// Defensive: alias cycles are rejected by Validate.
			return id
		}
	}
	return id
}
