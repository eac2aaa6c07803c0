package graph

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"github.com/serenity-ml/serenity/internal/reuse"
)

// Decoder decodes graphs in the JSON IR into memory it keeps from one call to
// the next: a Slab, and the buffers the scanner stages names in. A graph it
// returns is valid until its next Decode, which rebuilds the graph in the same
// memory; the zero value is ready to use, and a Decoder is not safe for
// concurrent use.
type Decoder struct {
	slab      Slab
	nameSpans []span // parallel to slab.nodes
	names     []byte // every name, back to back
}

// Decode is UnmarshalJSON into d's memory. Names are copied into one string
// of their own, so nothing the graph holds aliases data, and a caller may
// keep a node's name after the next Decode. A document the fast path does not
// take is decoded by the reference decoder on fresh memory.
func (d *Decoder) Decode(data []byte) (*Graph, error) {
	if g, ok := d.decodeFast(data); ok {
		return g, nil
	}
	return unmarshalStd(data)
}

// Bytes is the heap d keeps for reuse.
func (d *Decoder) Bytes() int {
	return d.slab.Bytes() + 16*cap(d.nameSpans) + cap(d.names)
}

// fastDecoder is the single-pass scanner behind decodeFast. It stages every
// node straight into the Decoder's Slab, and every name into one buffer it
// copies, so the graph never pins data.
//
// The read position is threaded through the scanning methods as an argument
// and a result rather than kept in the struct, so it lives in a register
// instead of making a round trip through memory at every token. The Decoder
// is embedded by value for the same reason, and copied back when the scan
// ends.
type fastDecoder struct {
	data []byte
	Decoder
	name span // the graph's name, in names
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
func (dec *Decoder) decodeFast(data []byte) (*Graph, bool) {
	d := fastDecoder{data: data, Decoder: *dec}
	hint := min(max(bytes.Count(data, []byte{'{'})-1, 0), maxNodeHint)
	// A typical node: a rank-4 shape, a few preds and as many succs.
	d.slab.Reset(hint, 8*hint)
	d.nameSpans = reuse.Empty(d.nameSpans, hint)
	d.names = reuse.Empty(d.names, 16*hint)
	var g *Graph
	if d.document() {
		names := string(d.names)
		for i, sp := range d.nameSpans {
			d.slab.nodes[i].Name = names[sp.off : sp.off+sp.len]
		}
		g = d.slab.Build(names[d.name.off : d.name.off+d.name.len])
	}
	*dec = d.Decoder // the buffers, grown or not, are the Decoder's again
	if g == nil || g.Validate() != nil {
		return nil, false
	}
	return g, true
}

func (d *fastDecoder) document() bool {
	const (
		keyName = 1 << iota
		keyNodes
	)
	i, ok := d.eat(0, '{')
	if !ok {
		return false
	}
	seen := 0
	i, empty := d.eat(i, '}')
	for more := !empty; more; {
		var key []byte
		if key, i, ok = d.key(i); !ok {
			return false
		}
		var bit int
		switch string(key) {
		case "name":
			bit = keyName
			d.name, i, ok = d.nameValue(i)
		case "nodes":
			bit = keyNodes
			i, ok = d.nodeArray(i)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if i, more, ok = d.next(i, '}'); !ok {
			return false
		}
	}
	return d.skipSpace(i) == len(d.data)
}

func (d *fastDecoder) nodeArray(i int) (int, bool) {
	i, ok := d.eat(i, '[')
	if !ok {
		return i, false
	}
	i, empty := d.eat(i, ']')
	for more := !empty; more; {
		if i, ok = d.node(i); !ok {
			return i, false
		}
		if i, more, ok = d.next(i, ']'); !ok {
			return i, false
		}
	}
	return i, true
}

// node scans one node object and applies the reference decoder's per-node
// checks: dense IDs, a known op and dtype, preds naming earlier nodes.
func (d *fastDecoder) node(i int) (int, bool) {
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
	i, ok := d.eat(i, '{')
	if !ok {
		return i, false
	}
	idx := len(d.slab.nodes)
	d.slab.nodes = append(d.slab.nodes, Node{Attr: Attr{AliasOf: -1}})
	n := &d.slab.nodes[idx]
	var name span
	var f slabSpan
	seen := 0
	i, empty := d.eat(i, '}')
	for more := !empty; more; {
		var key, s []byte
		if key, i, ok = d.key(i); !ok {
			return i, false
		}
		var bit int
		switch string(key) {
		case "id":
			bit = keyID
			n.ID, i, ok = d.integer(i)
		case "name":
			bit = keyName
			name, i, ok = d.nameValue(i)
		case "op":
			bit = keyOp
			if s, i, ok = d.str(i); ok {
				n.Op, ok = opFromBytes(s)
			}
		case "shape":
			bit = keyShape
			f.shape, i, ok = d.intArray(i)
		case "dtype":
			bit = keyDType
			if s, i, ok = d.str(i); ok && len(s) > 0 {
				n.DType, ok = dtypeFromBytes(s)
			}
		case "preds":
			bit = keyPreds
			if f.preds, i, ok = d.intArray(i); ok {
				for _, p := range d.slab.ints[f.preds.off:] {
					if p < 0 || p >= idx {
						return i, false
					}
				}
			}
		case "kernel_h":
			bit = keyKernelH
			n.Attr.KernelH, i, ok = d.integer(i)
		case "kernel_w":
			bit = keyKernelW
			n.Attr.KernelW, i, ok = d.integer(i)
		case "stride_h":
			bit = keyStrideH
			n.Attr.StrideH, i, ok = d.integer(i)
		case "stride_w":
			bit = keyStrideW
			n.Attr.StrideW, i, ok = d.integer(i)
		case "pad":
			bit = keyPad
			if s, i, ok = d.str(i); ok && string(s) == "valid" {
				// Like the reference, any other value means the default.
				n.Attr.Pad = PadValid
			}
		case "dilation":
			bit = keyDilation
			n.Attr.Dilation, i, ok = d.integer(i)
		case "axis":
			bit = keyAxis
			n.Attr.Axis, i, ok = d.integer(i)
		case "alias_of":
			bit = keyAliasOf
			n.Attr.AliasOf, i, ok = d.integer(i)
		case "chan_offset":
			bit = keyChanOffset
			n.Attr.ChanOffset, i, ok = d.integer(i)
		case "in_channels":
			bit = keyInChannels
			n.Attr.InChannels, i, ok = d.integer(i)
		default:
			return i, false
		}
		if !ok || seen&bit != 0 {
			return i, false
		}
		seen |= bit
		if i, more, ok = d.next(i, '}'); !ok {
			return i, false
		}
	}
	if seen&keyOp == 0 || n.ID != idx {
		return i, false
	}
	d.slab.spans = append(d.slab.spans, f)
	d.nameSpans = append(d.nameSpans, name)
	return i, true
}

// ws returns the index of the first byte at or after i that is not JSON
// whitespace. It is small enough to inline, so a token with nothing before
// it costs one comparison and no call.
func (d *fastDecoder) ws(i int) int {
	if i < len(d.data) && d.data[i] > ' ' {
		return i
	}
	return d.skipSpace(i)
}

// skipSpace is ws's loop. Indented documents are half blanks, nearly all of
// them a newline and then a run of spaces, so a newline or space takes the
// run after it in the same step: eight bytes at a time, XOR against eight
// spaces, and the lowest set bit marks the first byte that is not one.
func (d *fastDecoder) skipSpace(i int) int {
	const eightSpaces = 0x2020202020202020
	data := d.data
	for i < len(data) {
		c := data[i]
		if c > ' ' {
			return i
		}
		if c == '\n' || c == ' ' {
			i++
			if i+8 <= len(data) {
				if w := binary.LittleEndian.Uint64(data[i:]) ^ eightSpaces; w != 0 {
					i += bits.TrailingZeros64(w) >> 3
				} else {
					i += 8
				}
			}
			continue
		}
		if c != '\t' && c != '\r' {
			return i
		}
		i++
	}
	return i
}

// eat consumes optional whitespace and then c. It reports whether c was
// there; either way the index it returns is past the whitespace.
func (d *fastDecoder) eat(i int, c byte) (int, bool) {
	if i = d.ws(i); i < len(d.data) && d.data[i] == c {
		return i + 1, true
	}
	return i, false
}

// next is called after an object member or array element: a comma means
// another follows, closer ends the value, anything else is not canonical.
func (d *fastDecoder) next(i int, closer byte) (_ int, more, ok bool) {
	if i = d.ws(i); i < len(d.data) {
		switch d.data[i] {
		case ',':
			return i + 1, true, true
		case closer:
			return i + 1, false, true
		}
	}
	return i, false, false
}

// plain marks the bytes a canonical string holds as they are: printable
// ASCII but the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str scans a string and returns its contents, which alias data.
func (d *fastDecoder) str(i int) ([]byte, int, bool) {
	data := d.data
	if i = d.ws(i); i >= len(data) || data[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(data); j++ {
		if !plain[data[j]] {
			if data[j] != '"' {
				return nil, j, false
			}
			return data[i+1 : j], j + 1, true
		}
	}
	return nil, len(data), false
}

// key scans an object key, the colon after it, and the one space an
// indenting writer puts after the colon.
func (d *fastDecoder) key(i int) ([]byte, int, bool) {
	k, i, ok := d.str(i)
	if !ok {
		return nil, i, false
	}
	data := d.data
	if i = d.ws(i); i >= len(data) || data[i] != ':' {
		return nil, i, false
	}
	if i++; i < len(data) && data[i] == ' ' {
		i++
	}
	return k, i, true
}

// nameValue scans a string and copies it into the names buffer.
func (d *fastDecoder) nameValue(i int) (span, int, bool) {
	s, i, ok := d.str(i)
	if !ok {
		return span{}, i, false
	}
	sp := span{len(d.names), len(s)}
	d.names = append(d.names, s...)
	return sp, i, true
}

// integer scans -?(0|[1-9][0-9]*) of at most 18 digits, which cannot
// overflow; longer ones are the reference decoder's to judge.
func (d *fastDecoder) integer(i int) (int, int, bool) {
	data := d.data
	i = d.ws(i)
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start, v := i, 0
	for ; i < len(data) && data[i]-'0' <= 9; i++ {
		v = v*10 + int(data[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 18 || (digits > 1 && data[start] == '0') {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// intArray scans an array of integers into the slab's arena.
func (d *fastDecoder) intArray(i int) (span, int, bool) {
	i, ok := d.eat(i, '[')
	if !ok {
		return span{}, i, false
	}
	off := len(d.slab.ints)
	i, empty := d.eat(i, ']')
	for more := !empty; more; {
		var v int
		if v, i, ok = d.integer(i); !ok {
			return span{}, i, false
		}
		d.slab.ints = append(d.slab.ints, v)
		if i, more, ok = d.next(i, ']'); !ok {
			return span{}, i, false
		}
	}
	return span{off, len(d.slab.ints) - off}, i, true
}
