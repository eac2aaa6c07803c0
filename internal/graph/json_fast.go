package graph

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// fastDecoder is the single-pass scanner behind decodeFast. It stages every
// node straight into a Slab, and every name into one buffer it copies, so
// the graph never pins data.
type fastDecoder struct {
	data      []byte
	pos       int
	slab      Slab
	name      span   // the graph's name, in names
	nameSpans []span // parallel to slab.nodes
	names     []byte // every name, back to back
}

// maxNodeHint caps the scratch pre-sizing: the hint counts '{' bytes, which a
// hostile body can stuff into a string, and a node costs ~350 bytes of it.
const maxNodeHint = 1024

// decodeFast decodes the canonical form of the JSON IR: objects with exactly
// the lower-case keys of jsonGraph and jsonNode, each at most once; strings
// of unescaped printable ASCII; plain decimal integers; any JSON whitespace.
// It reports false — having decided nothing — for every other input,
// including every document the reference decoder would reject, so callers
// fall back to unmarshalStd for the verdict and the error text. When it
// reports true the graph is deep-equal to unmarshalStd's.
func decodeFast(data []byte) (*Graph, bool) {
	d := fastDecoder{data: data}
	if hint := bytes.Count(data, []byte{'{'}) - 1; hint > 0 {
		hint = min(hint, maxNodeHint)
		// A typical node: a rank-4 shape, a few preds and as many succs.
		d.slab = *NewSlab(hint, 8*hint)
		d.nameSpans = make([]span, 0, hint)
		d.names = make([]byte, 0, 16*hint)
	}
	if !d.document() {
		return nil, false
	}
	names := string(d.names)
	for i, sp := range d.nameSpans {
		d.slab.nodes[i].Name = names[sp.off : sp.off+sp.len]
	}
	g := d.slab.Build(names[d.name.off : d.name.off+d.name.len])
	if g.Validate() != nil {
		return nil, false
	}
	return g, true
}

func (d *fastDecoder) document() bool {
	const (
		keyName = 1 << iota
		keyNodes
	)
	if !d.eat('{') {
		return false
	}
	seen := 0
	for more := !d.eat('}'); more; {
		key, ok := d.str()
		if !ok || !d.eat(':') {
			return false
		}
		var bit int
		switch string(key) {
		case "name":
			bit = keyName
			d.name, ok = d.nameValue()
		case "nodes":
			bit = keyNodes
			ok = d.nodeArray()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok = d.next('}'); !ok {
			return false
		}
	}
	d.skipSpace()
	return d.pos == len(d.data)
}

func (d *fastDecoder) nodeArray() bool {
	if !d.eat('[') {
		return false
	}
	for more := !d.eat(']'); more; {
		if !d.node() {
			return false
		}
		var ok bool
		if more, ok = d.next(']'); !ok {
			return false
		}
	}
	return true
}

// node scans one node object and applies the reference decoder's per-node
// checks: dense IDs, a known op and dtype, preds naming earlier nodes.
func (d *fastDecoder) node() bool {
	const (
		keyID = 1 << iota
		keyName
		keyOp
		keyShape
		keyDType
		keyPreds
		keyKernelH
		keyKernelW
		keyStrideH
		keyStrideW
		keyPad
		keyDilation
		keyAxis
		keyAliasOf
		keyChanOffset
		keyInChannels
	)
	if !d.eat('{') {
		return false
	}
	idx := len(d.slab.nodes)
	d.slab.nodes = append(d.slab.nodes, Node{Attr: Attr{AliasOf: -1}})
	n := &d.slab.nodes[idx]
	var name span
	var f slabSpan
	seen := 0
	for more := !d.eat('}'); more; {
		key, ok := d.str()
		if !ok || !d.eat(':') {
			return false
		}
		var bit int
		switch string(key) {
		case "id":
			bit = keyID
			n.ID, ok = d.integer()
		case "name":
			bit = keyName
			name, ok = d.nameValue()
		case "op":
			bit = keyOp
			var s []byte
			if s, ok = d.str(); ok {
				n.Op, ok = opFromBytes(s)
			}
		case "shape":
			bit = keyShape
			f.shape, ok = d.intArray()
		case "dtype":
			bit = keyDType
			var s []byte
			if s, ok = d.str(); ok && len(s) > 0 {
				n.DType, ok = dtypeFromBytes(s)
			}
		case "preds":
			bit = keyPreds
			if f.preds, ok = d.intArray(); ok {
				for _, p := range d.slab.ints[f.preds.off:] {
					if p < 0 || p >= idx {
						return false
					}
				}
			}
		case "kernel_h":
			bit = keyKernelH
			n.Attr.KernelH, ok = d.integer()
		case "kernel_w":
			bit = keyKernelW
			n.Attr.KernelW, ok = d.integer()
		case "stride_h":
			bit = keyStrideH
			n.Attr.StrideH, ok = d.integer()
		case "stride_w":
			bit = keyStrideW
			n.Attr.StrideW, ok = d.integer()
		case "pad":
			bit = keyPad
			var s []byte
			if s, ok = d.str(); ok && string(s) == "valid" {
				// Like the reference, any other value means the default.
				n.Attr.Pad = PadValid
			}
		case "dilation":
			bit = keyDilation
			n.Attr.Dilation, ok = d.integer()
		case "axis":
			bit = keyAxis
			n.Attr.Axis, ok = d.integer()
		case "alias_of":
			bit = keyAliasOf
			n.Attr.AliasOf, ok = d.integer()
		case "chan_offset":
			bit = keyChanOffset
			n.Attr.ChanOffset, ok = d.integer()
		case "in_channels":
			bit = keyInChannels
			n.Attr.InChannels, ok = d.integer()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok = d.next('}'); !ok {
			return false
		}
	}
	if seen&keyOp == 0 || n.ID != idx {
		return false
	}
	d.slab.spans = append(d.slab.spans, f)
	d.nameSpans = append(d.nameSpans, name)
	return true
}

// skipSpace advances past JSON whitespace. Indented documents are half
// blanks, nearly all of them runs of spaces after a newline, so a run is
// measured eight bytes at a time: XOR against eight spaces and the lowest
// set bit marks the first byte that is not one.
func (d *fastDecoder) skipSpace() {
	const eightSpaces = 0x2020202020202020
	data, i := d.data, d.pos
	for i < len(data) {
		switch data[i] {
		case ' ':
			if i+8 <= len(data) {
				i += bits.TrailingZeros64(binary.LittleEndian.Uint64(data[i:])^eightSpaces) >> 3
				continue
			}
		case '\n', '\t', '\r':
		default:
			d.pos = i
			return
		}
		i++
	}
	d.pos = i
}

// eat consumes optional whitespace and then c, or nothing.
func (d *fastDecoder) eat(c byte) bool {
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// next is called after an object member or array element: a comma means
// another follows, closer ends the value, anything else is not canonical.
func (d *fastDecoder) next(closer byte) (more, ok bool) {
	if d.eat(',') {
		return true, true
	}
	return false, d.eat(closer)
}

// str scans a string and returns its contents, which alias data.
func (d *fastDecoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	for i := d.pos; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[d.pos:i]
			d.pos = i + 1
			return s, true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// nameValue scans a string and copies it into the names buffer.
func (d *fastDecoder) nameValue() (span, bool) {
	s, ok := d.str()
	if !ok {
		return span{}, false
	}
	sp := span{len(d.names), len(s)}
	d.names = append(d.names, s...)
	return sp, true
}

// integer scans -?(0|[1-9][0-9]*) of at most 18 digits, which cannot
// overflow; longer ones are the reference decoder's to judge.
func (d *fastDecoder) integer() (int, bool) {
	d.skipSpace()
	i := d.pos
	neg := i < len(d.data) && d.data[i] == '-'
	if neg {
		i++
	}
	start, v := i, 0
	for ; i < len(d.data) && d.data[i]-'0' <= 9; i++ {
		v = v*10 + int(d.data[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 18 || (digits > 1 && d.data[start] == '0') {
		return 0, false
	}
	d.pos = i
	if neg {
		v = -v
	}
	return v, true
}

// intArray scans an array of integers into the slab's arena.
func (d *fastDecoder) intArray() (span, bool) {
	if !d.eat('[') {
		return span{}, false
	}
	off := len(d.slab.ints)
	for more := !d.eat(']'); more; {
		v, ok := d.integer()
		if !ok {
			return span{}, false
		}
		d.slab.ints = append(d.slab.ints, v)
		if more, ok = d.next(']'); !ok {
			return span{}, false
		}
	}
	return span{off, len(d.slab.ints) - off}, true
}

func opFromBytes(b []byte) (OpType, bool) {
	for i, n := range opNames {
		if n == string(b) {
			return OpType(i), true
		}
	}
	return 0, false
}

func dtypeFromBytes(b []byte) (DType, bool) {
	for dt := Float32; dt <= UInt8; dt++ {
		if dt.String() == string(b) {
			return dt, true
		}
	}
	return 0, false
}
