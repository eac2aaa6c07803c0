package graph

// The two decoders, for the external tests that need internal/models (which
// imports this package) to build their corpus.
var (
	DecodeFast   = decodeFast
	UnmarshalStd = unmarshalStd
)
