package jsonwire

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// indented is the oracle: encoding/json, HTML escaping on, two-space indent.
func indented(t *testing.T, v any) string {
	t.Helper()
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain ASCII ~", "<script>&amp;</script>", `quote"back\slash/`, "\b\f\n\r\t\x00\x1f\x7f",
		"caf\u00e9 \u65e5\u672c \U0001F600", "\u2028 \u2029 \ufffd", "bad\xff", "\xc3", "trunc\xe2\x80", "\xed\xa0\x80 surrogate",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		if got, want := string(String(nil, s)), indented(t, s); got != want {
			t.Errorf("String(%q) = %s, encoding/json says %s", s, got, want)
		}
	}
}

func TestFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 0.001, 12.345, 1e-6, 9.99e-7, 1e-7, 1e-9, 1.5e-10,
		1e20, 1e21, 1.5e21, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, float64(1 << 53)}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		cases = append(cases, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range cases {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		if got, want := string(Float(nil, f)), indented(t, f); got != want {
			t.Errorf("Float(%v) = %s, encoding/json says %s", f, got, want)
		}
	}
}

func TestIntsAndKeysMatchEncodingJSON(t *testing.T) {
	type doc struct {
		Nil   []int `json:"nil"`
		Empty []int `json:"empty"`
		In    struct {
			Some []int `json:"some"`
		} `json:"in"`
	}
	v := doc{Empty: []int{}}
	v.In.Some = []int{0, -7, math.MaxInt64, math.MinInt64}

	got := append([]byte(nil), '{')
	got = Ints(Key(got, 1, "nil", true), v.Nil, 1)
	got = Ints(Key(got, 1, "empty", false), v.Empty, 1)
	got = append(Key(got, 1, "in", false), '{')
	got = Ints(Key(got, 2, "some", true), v.In.Some, 2)
	got = append(Line(got, 1), '}')
	got = append(Line(got, 0), '}')
	if want := indented(t, v); string(got) != want {
		t.Errorf("got %s\nwant %s", got, want)
	}
}
