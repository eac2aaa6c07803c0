// Command graphgen emits benchmark graphs in the JSON IR format (and
// optionally Graphviz DOT), for use with cmd/serenity or external tooling.
//
//	graphgen -net swiftnet -o swiftnet.json -dot swiftnet.dot
//	graphgen -net randwire -nodes 32 -k 4 -p 0.75 -seed 7 -o rw.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/models"
)

func main() {
	net := flag.String("net", "swiftnet", "network to generate (darts|swiftnet|swiftnet-a|swiftnet-b|swiftnet-c|randwire)")
	out := flag.String("o", "-", "output JSON path ('-' for stdout)")
	dot := flag.String("dot", "", "also write Graphviz DOT to this path")
	nodes := flag.Int("nodes", 32, "randwire: WS graph size")
	k := flag.Int("k", 4, "randwire: nearest neighbours")
	p := flag.Float64("p", 0.75, "randwire: rewiring probability")
	seed := flag.Int64("seed", 101, "randwire: generator seed")
	hw := flag.Int("hw", 32, "randwire: feature map side")
	channels := flag.Int("channels", 16, "randwire: channels")
	flag.Parse()

	if err := run(*net, *out, *dot, *nodes, *k, *p, *seed, *hw, *channels); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(net, out, dot string, nodes, k int, p float64, seed int64, hw, channels int) error {
	g, err := models.ByName(net, models.WSConfig{Nodes: nodes, K: k, P: p, Seed: seed, HW: hw, Channel: channels})
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := serenity.WriteGraphJSON(w, g); err != nil {
		return err
	}
	if dot != "" {
		f, err := os.Create(dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := g.WriteDOT(f); err != nil {
			return err
		}
	}
	return nil
}
