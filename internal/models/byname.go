package models

import (
	"fmt"

	"github.com/serenity-ml/serenity/internal/graph"
)

// ByName builds the network the commands name on their command lines: darts,
// swiftnet, swiftnet-a, swiftnet-b, swiftnet-c, or randwire, a cell drawn
// with ws and named after its parameters (ws.Validate's error if it draws
// none).
func ByName(net string, ws WSConfig) (*graph.Graph, error) {
	switch net {
	case "darts":
		return DARTSNormalCell(), nil
	case "swiftnet":
		return SwiftNet(), nil
	case "swiftnet-a":
		return SwiftNetCellA(), nil
	case "swiftnet-b":
		return SwiftNetCellB(), nil
	case "swiftnet-c":
		return SwiftNetCellC(), nil
	case "randwire":
		if err := ws.Validate(); err != nil {
			return nil, err
		}
		return RandWireCell(fmt.Sprintf("randwire_ws_%d_%d_%v_%d", ws.Nodes, ws.K, ws.P, ws.Seed), ws), nil
	}
	return nil, fmt.Errorf("unknown network %q", net)
}
