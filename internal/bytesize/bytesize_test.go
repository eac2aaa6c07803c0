package bytesize

import (
	"math"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		bad  bool
	}{
		{in: "256", want: 256},
		{in: "0", want: 0},
		{in: "250KiB", want: 250 << 10},
		{in: "250kb", want: 250 << 10},
		{in: "2MiB", want: 2 << 20},
		{in: "1mb", want: 1 << 20},
		{in: "1GiB", want: 1 << 30},
		{in: "1024MiB", want: 1 << 30},
		{in: "3gb", want: 3 << 30},
		{in: " 4 MiB ", want: 4 << 20},
		{in: "-1KiB", want: -1024},
		{in: "9223372036854775807", want: math.MaxInt64},
		{in: "8589934591GiB", want: math.MaxInt64 &^ (1<<30 - 1)}, // largest product that fits
		// Overflow must be refused, not wrapped negative.
		{in: "8589934592GiB", bad: true},
		{in: "9223372036854775807KiB", bad: true},
		{in: "-9223372036854775808MB", bad: true},
		{in: "9223372036854775808", bad: true},
		// Garbage.
		{in: "", bad: true},
		{in: "abc", bad: true},
		{in: "12XB", bad: true},
		{in: "12B", bad: true},
		{in: "MiB", bad: true},
		{in: "1.5GiB", bad: true},
		{in: "1TiB", bad: true},
		{in: "1KiBKiB", bad: true},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		switch {
		case c.bad && err == nil:
			t.Errorf("Parse(%q) = %d, want an error", c.in, got)
		case !c.bad && err != nil:
			t.Errorf("Parse(%q): %v", c.in, err)
		case !c.bad && got != c.want:
			t.Errorf("Parse(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
