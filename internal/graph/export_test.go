package graph

// decodeFast is the fast path alone, on fresh memory: what the differential
// tests hold to the reference decoder.
func decodeFast(data []byte) (*Graph, bool) {
	var d Decoder
	return d.decodeFast(data)
}

// The two decoders, for the external tests that need internal/models (which
// imports this package) to build their corpus.
var (
	DecodeFast   = decodeFast
	UnmarshalStd = unmarshalStd
)
