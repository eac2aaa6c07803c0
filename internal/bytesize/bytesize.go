// Package bytesize parses the human-readable byte sizes the command-line
// flags and HTTP query parameters accept.
package bytesize

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// suffixes maps each accepted unit spelling to its (binary) multiplier. No
// spelling is a suffix of another, so match order does not matter.
var suffixes = []struct {
	name string
	mult int64
}{
	{"kib", 1 << 10}, {"kb", 1 << 10},
	{"mib", 1 << 20}, {"mb", 1 << 20},
	{"gib", 1 << 30}, {"gb", 1 << 30},
}

// Parse accepts a plain byte count ("262144") or a count with a
// case-insensitive binary suffix: "250KiB"/"250KB", "4MiB"/"4MB",
// "1GiB"/"1GB" (the two-letter forms are binary too). A product that does not
// fit an int64 is an error, never a wrapped value.
func Parse(s string) (int64, error) {
	mult := int64(1)
	u := strings.ToLower(strings.TrimSpace(s))
	for _, sf := range suffixes {
		if strings.HasSuffix(u, sf.name) {
			mult, u = sf.mult, strings.TrimSpace(strings.TrimSuffix(u, sf.name))
			break
		}
	}
	v, err := strconv.ParseInt(u, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	if v > math.MaxInt64/mult || v < math.MinInt64/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return v * mult, nil
}
