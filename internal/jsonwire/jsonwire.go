// Package jsonwire holds the append-based primitives of the hand-written
// wire encoders (graph.AppendJSON, serenityd's schedule responses). Each one
// reproduces, byte for byte, what encoding/json's Encoder emits for the same
// value under SetIndent("", "  ") with HTML escaping on — the format every
// golden file, client and stored ETag already depends on. encoding/json stays
// the definition: the differential tests compare against it.
package jsonwire

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// Line appends a newline and depth levels of two-space indentation.
func Line(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// Key starts a struct field on its own line: the indentation, the quoted
// key (callers pass literal ASCII keys that need no escaping) and ": ". The
// separating comma is written here, not after the previous value, so that
// omitempty fields need no look-ahead; first says there is no previous field.
func Key(dst []byte, depth int, key string, first bool) []byte {
	if !first {
		dst = append(dst, ',')
	}
	dst = Line(dst, depth)
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':', ' ')
}

// Int starts a struct field that is not its object's first and appends the
// integer v; omitEmpty drops a zero, as the `omitempty` tag does.
func Int(dst []byte, depth int, key string, v int64, omitEmpty bool) []byte {
	if omitEmpty && v == 0 {
		return dst
	}
	return strconv.AppendInt(Key(dst, depth, key, false), v, 10)
}

// String appends s as a JSON string the way encoding/json does with
// EscapeHTML: <, > and & as \u00XX, control bytes as short escapes or \u00XX,
// invalid UTF-8 as the six characters \ufffd, U+2028/2029 escaped.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Float appends f in encoding/json's ES6-style number format. f must be
// finite: encoding/json refuses NaN and infinities, and nothing on the wire
// produces them.
func Float(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json cleans it up.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// Ints appends v as an indented array whose closing bracket sits at depth:
// one element per line, "[]" when empty and "null" when nil.
func Ints(dst []byte, v []int, depth int) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	if len(v) == 0 {
		return append(dst, '[', ']')
	}
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = Line(dst, depth+1)
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	dst = Line(dst, depth)
	return append(dst, ']')
}
