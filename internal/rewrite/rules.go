package rewrite

import (
	"fmt"

	"github.com/serenity-ml/serenity/internal/graph"
)

// Rule is a semantics-preserving graph transformation. Rules beyond the
// paper's two partitioning patterns are extensions (Section 6 notes the
// "significant potential for compiler techniques"); each is verified
// numerically by the executor tests like the core patterns.
type Rule interface {
	// Name identifies the rule in logs and results.
	Name() string
	// Apply returns a transformed copy of g and the number of sites
	// changed. When no site changes it returns (nil, 0, nil) and callers keep
	// the input graph.
	Apply(g *graph.Graph) (*graph.Graph, int, error)
}

// partitioningRule wraps the paper's channel-wise/kernel-wise patterns as a
// Rule.
type partitioningRule struct{}

func (partitioningRule) Name() string { return "concat-partitioning" }

func (partitioningRule) Apply(g *graph.Graph) (*graph.Graph, int, error) {
	matches := FindMatches(g)
	if len(matches) == 0 {
		return nil, 0, nil
	}
	out, err := Apply(g, matches)
	if err != nil {
		return nil, 0, err
	}
	return out, len(matches), nil
}

// PartitioningRule returns the paper's identity-partitioning rule
// (channel-wise + kernel-wise).
func PartitioningRule() Rule { return partitioningRule{} }

// concatFlattenRule rewrites concat(concat(a,b), c) -> concat(a, b, c).
// Nested concatenation materializes the inner tensor for no reason; the
// flattened form both removes that allocation and exposes more branches to
// the partitioning rule.
type concatFlattenRule struct{}

func (concatFlattenRule) Name() string { return "concat-flatten" }

func (concatFlattenRule) Apply(g *graph.Graph) (*graph.Graph, int, error) {
	// Find inner concats whose only consumer is another concat (on the
	// channel axis; the builder only produces channel concats).
	inner := make([]bool, g.NumNodes())
	count := 0
	for _, n := range g.Nodes {
		if n.Op == graph.OpConcat && len(n.Succs) == 1 && g.Nodes[n.Succs[0]].Op == graph.OpConcat {
			inner[n.ID] = true
			count++
		}
	}
	if count == 0 {
		return nil, 0, nil
	}

	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	remap := make([]int, g.NumNodes())
	for i := range remap {
		remap[i] = -1
	}
	// expansion[v] lists the new-graph IDs replacing v when v is an elided
	// inner concat (its operands in order).
	expansion := make(map[int][]int, count)
	expand := func(dst, preds []int) []int {
		for _, p := range preds {
			if exp, ok := expansion[p]; ok {
				dst = append(dst, exp...)
			} else {
				dst = append(dst, remap[p])
			}
		}
		return dst
	}
	// Flattening drops more arena entries than it adds, so g's own arena
	// bounds the result's.
	out := graph.NewSlab(g.NumNodes()-count, arenaInts(g))
	var preds []int
	for _, v := range order {
		n := g.Nodes[v]
		if inner[v] {
			expansion[v] = expand(nil, n.Preds)
			continue
		}
		preds = expand(preds[:0], n.Preds)
		c := *n
		c.Preds = preds
		if n.Attr.AliasOf >= 0 {
			c.Attr.AliasOf = remap[n.Attr.AliasOf]
		}
		remap[v] = out.Add(c)
	}
	rw := out.Build(g.Name)
	if err := rw.Validate(); err != nil {
		return nil, 0, fmt.Errorf("rewrite: concat-flatten produced invalid graph: %w", err)
	}
	return rw, count, nil
}

// ConcatFlattenRule returns the nested-concat flattening rule.
func ConcatFlattenRule() Rule { return concatFlattenRule{} }

// identityElimRule removes pure-copy Identity nodes (single predecessor, no
// aliasing, not a graph output). Identity copies cost a full activation
// tensor; forwarding consumers to the source is arithmetic-identical.
type identityElimRule struct{}

func (identityElimRule) Name() string { return "identity-elimination" }

func (identityElimRule) Apply(g *graph.Graph) (*graph.Graph, int, error) {
	elide := make([]bool, g.NumNodes())
	count := 0
	for _, n := range g.Nodes {
		if n.Op == graph.OpIdentity && n.Attr.AliasOf < 0 &&
			len(n.Preds) == 1 && len(n.Succs) > 0 {
			elide[n.ID] = true
			count++
		}
	}
	if count == 0 {
		return nil, 0, nil
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	remap := make([]int, g.NumNodes())
	for i := range remap {
		remap[i] = -1
	}
	source := func(p int) int {
		for elide[p] {
			p = g.Nodes[p].Preds[0]
		}
		return p
	}
	out := graph.NewSlab(g.NumNodes()-count, arenaInts(g))
	var preds []int
	for _, v := range order {
		n := g.Nodes[v]
		if elide[v] {
			continue
		}
		preds = preds[:0]
		for _, p := range n.Preds {
			preds = append(preds, remap[source(p)])
		}
		c := *n
		c.Preds = preds
		if n.Attr.AliasOf >= 0 {
			c.Attr.AliasOf = remap[source(n.Attr.AliasOf)]
		}
		remap[v] = out.Add(c)
	}
	rw := out.Build(g.Name)
	if err := rw.Validate(); err != nil {
		return nil, 0, fmt.Errorf("rewrite: identity-elimination produced invalid graph: %w", err)
	}
	return rw, count, nil
}

// IdentityElimRule returns the identity-copy elimination rule.
func IdentityElimRule() Rule { return identityElimRule{} }

// RuleApplication records one rule firing during RewriteAll.
type RuleApplication struct {
	Rule  string
	Sites int
}

// DefaultRules returns the paper's rule set (partitioning only).
func DefaultRules() []Rule { return []Rule{PartitioningRule()} }

// ExtendedRules returns the full rule set: cleanup rules first (they expose
// more partitioning sites), then the paper's partitioning patterns.
func ExtendedRules() []Rule {
	return []Rule{IdentityElimRule(), ConcatFlattenRule(), PartitioningRule()}
}

// RewriteAll applies rules in order, repeating until a fixpoint (no rule
// fires) or maxPasses is reached. It returns the final graph (the input if
// nothing fired) and the applications performed.
func RewriteAll(g *graph.Graph, rules []Rule, maxPasses int) (*graph.Graph, []RuleApplication, error) {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	cur := g
	var apps []RuleApplication
	for pass := 0; pass < maxPasses; pass++ {
		fired := false
		for _, r := range rules {
			next, count, err := r.Apply(cur)
			if err != nil {
				return nil, nil, fmt.Errorf("rewrite: rule %s: %w", r.Name(), err)
			}
			if count > 0 {
				cur = next
				apps = append(apps, RuleApplication{Rule: r.Name(), Sites: count})
				fired = true
			}
		}
		if !fired {
			break
		}
	}
	return cur, apps, nil
}
