package rewrite

import (
	"fmt"

	"github.com/serenity-ml/serenity/internal/graph"
)

// Rule is a semantics-preserving graph transformation. The only Rule is
// partitioningRule, the paper's two patterns (Figure 9) behind the interface
// RewriteAll iterates.
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

// RuleApplication records one rule firing during RewriteAll.
type RuleApplication struct {
	Rule  string
	Sites int
}

// DefaultRules returns the paper's rule set (partitioning only).
func DefaultRules() []Rule { return []Rule{partitioningRule{}} }

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
