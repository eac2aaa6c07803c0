package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"github.com/serenity-ml/serenity/internal/jsonwire"
)

// jsonGraph is the on-disk representation accepted by the CLI.
type jsonGraph struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
}

type jsonNode struct {
	ID         int    `json:"id"`
	Name       string `json:"name,omitempty"`
	Op         string `json:"op"`
	Shape      []int  `json:"shape"`
	DType      string `json:"dtype,omitempty"`
	Preds      []int  `json:"preds,omitempty"`
	KernelH    int    `json:"kernel_h,omitempty"`
	KernelW    int    `json:"kernel_w,omitempty"`
	StrideH    int    `json:"stride_h,omitempty"`
	StrideW    int    `json:"stride_w,omitempty"`
	Pad        string `json:"pad,omitempty"`
	Dilation   int    `json:"dilation,omitempty"`
	Axis       int    `json:"axis,omitempty"`
	AliasOf    *int   `json:"alias_of,omitempty"`
	ChanOffset int    `json:"chan_offset,omitempty"`
	InChannels int    `json:"in_channels,omitempty"`
}

// MarshalJSON encodes the graph in the CLI's JSON format.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return g.AppendJSON(make([]byte, 0, g.JSONSizeHint(0)), 0), nil
}

// AppendJSON appends the graph in the CLI's JSON format, indented as a value
// nested depth levels deep in an enclosing document (0 for a document of its
// own; no trailing newline). The bytes are exactly what encoding/json renders
// for jsonGraph under two-space indentation — jsonGraph and its struct tags
// stay as that oracle's input (see TestAppendJSONMatchesEncodingJSON) — in
// one pass, without the reflection, compaction and re-indentation.
func (g *Graph) AppendJSON(dst []byte, depth int) []byte {
	dst = append(dst, '{')
	dst = jsonwire.Key(dst, depth+1, "name", true)
	dst = jsonwire.String(dst, g.Name)
	dst = jsonwire.Key(dst, depth+1, "nodes", false)
	if len(g.Nodes) == 0 {
		dst = append(dst, '[', ']')
	} else {
		dst = append(dst, '[')
		for i, n := range g.Nodes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonwire.Line(dst, depth+2)
			dst = n.appendJSON(dst, depth+2)
		}
		dst = jsonwire.Line(dst, depth+1)
		dst = append(dst, ']')
	}
	dst = jsonwire.Line(dst, depth)
	return append(dst, '}')
}

// appendJSON appends one node object whose closing brace sits at depth.
func (n *Node) appendJSON(dst []byte, depth int) []byte {
	d := depth + 1
	dst = append(dst, '{')
	dst = jsonwire.Key(dst, d, "id", true)
	dst = strconv.AppendInt(dst, int64(n.ID), 10)
	if n.Name != "" {
		dst = jsonwire.Key(dst, d, "name", false)
		dst = jsonwire.String(dst, n.Name)
	}
	dst = jsonwire.Key(dst, d, "op", false)
	dst = jsonwire.String(dst, n.Op.String())
	dst = jsonwire.Key(dst, d, "shape", false)
	dst = jsonwire.Ints(dst, n.Shape, d)
	dst = jsonwire.Key(dst, d, "dtype", false)
	dst = jsonwire.String(dst, n.DType.String())
	if len(n.Preds) > 0 {
		dst = jsonwire.Key(dst, d, "preds", false)
		dst = jsonwire.Ints(dst, n.Preds, d)
	}
	dst = jsonwire.Int(dst, d, "kernel_h", int64(n.Attr.KernelH), true)
	dst = jsonwire.Int(dst, d, "kernel_w", int64(n.Attr.KernelW), true)
	dst = jsonwire.Int(dst, d, "stride_h", int64(n.Attr.StrideH), true)
	dst = jsonwire.Int(dst, d, "stride_w", int64(n.Attr.StrideW), true)
	if n.Attr.Pad == PadValid {
		dst = jsonwire.Key(dst, d, "pad", false)
		dst = append(dst, `"valid"`...)
	}
	dst = jsonwire.Int(dst, d, "dilation", int64(n.Attr.Dilation), true)
	dst = jsonwire.Int(dst, d, "axis", int64(n.Attr.Axis), true)
	if n.Attr.AliasOf >= 0 {
		dst = jsonwire.Int(dst, d, "alias_of", int64(n.Attr.AliasOf), false)
	}
	dst = jsonwire.Int(dst, d, "chan_offset", int64(n.Attr.ChanOffset), true)
	dst = jsonwire.Int(dst, d, "in_channels", int64(n.Attr.InChannels), true)
	dst = jsonwire.Line(dst, depth)
	return append(dst, '}')
}

// JSONSizeHint estimates AppendJSON's output size at depth so callers can
// allocate the buffer once: per node the fixed lines (braces, id, op, dtype, the
// shape and preds brackets, a few attributes) plus one line per shape
// dimension and predecessor, every line paying its indentation. A low guess
// only costs an append growth, never correctness.
func (g *Graph) JSONSizeHint(depth int) int {
	indent := 2 * (depth + 4)
	size := 64 + len(g.Name)
	for _, n := range g.Nodes {
		size += 12*(indent+22) + len(n.Name) + (len(n.Shape)+len(n.Preds))*(indent+8)
	}
	return size
}

// UnmarshalJSON decodes the CLI's JSON format into the graph. Nodes must be
// listed in ID order starting at zero.
//
// encoding/json defines the accepted language, every quirk of it and every
// error message (unmarshalStd). Canonical documents — what AppendJSON and
// any ordinary JSON writer emit for this schema — take decodeFast, which
// builds the same graph several times faster; anything it does not recognise
// or would reject goes through unmarshalStd from the first byte, so the fast
// path only has to be sound when it accepts
// (FuzzGraphJSONDifferential).
func (g *Graph) UnmarshalJSON(data []byte) error {
	out, ok := decodeFast(data)
	if !ok {
		var err error
		if out, err = unmarshalStd(data); err != nil {
			return err
		}
	}
	*g = *out
	return nil
}

// unmarshalStd is the reference decoder: reflection-driven encoding/json
// into jsonGraph, then node by node through AddNode.
func unmarshalStd(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	out := New(jg.Name)
	for i, jn := range jg.Nodes {
		if jn.ID != i {
			return nil, fmt.Errorf("graph: node %d listed at index %d; nodes must be dense and ordered", jn.ID, i)
		}
		op, err := ParseOpType(jn.Op)
		if err != nil {
			return nil, err
		}
		// Preds must reference already-decoded nodes (the format is dense
		// and topologically ordered); AddNode would index out of range on a
		// forward or out-of-range reference, so reject it as a decode error.
		for _, p := range jn.Preds {
			if p < 0 || p >= i {
				return nil, fmt.Errorf("graph: node %d references predecessor %d; preds must name earlier node IDs", i, p)
			}
		}
		id := out.AddNode(op, jn.Name, Shape(jn.Shape), jn.Preds...)
		n := out.Nodes[id]
		if jn.DType != "" {
			dt, err := ParseDType(jn.DType)
			if err != nil {
				return nil, err
			}
			n.DType = dt
		}
		n.Attr.KernelH, n.Attr.KernelW = jn.KernelH, jn.KernelW
		n.Attr.StrideH, n.Attr.StrideW = jn.StrideH, jn.StrideW
		n.Attr.Dilation = jn.Dilation
		n.Attr.Axis = jn.Axis
		n.Attr.ChanOffset = jn.ChanOffset
		n.Attr.InChannels = jn.InChannels
		if jn.Pad == "valid" {
			n.Attr.Pad = PadValid
		}
		if jn.AliasOf != nil {
			n.Attr.AliasOf = *jn.AliasOf
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteJSON writes the graph to w in the CLI's JSON format.
func (g *Graph) WriteJSON(w io.Writer) error {
	data, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadJSON parses a graph from r. A reader that knows its length
// (bytes.Reader, bytes.Buffer, strings.Reader) is read into a buffer of that
// size instead of one grown by doubling.
func ReadJSON(r io.Reader) (*Graph, error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		// MinRead spare bytes let ReadFrom see EOF without growing.
		buf.Grow(sized.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	g := New("")
	if err := g.UnmarshalJSON(buf.Bytes()); err != nil {
		return nil, err
	}
	return g, nil
}
