package models

import (
	"testing"

	"github.com/serenity-ml/serenity/internal/rewrite"
	"github.com/serenity-ml/serenity/internal/sched"
)

func TestExtraCellsValidAndSchedulable(t *testing.T) {
	for _, c := range ExtraCells() {
		g := c.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Network, err)
		}
		m := sched.NewMemModel(g)
		ar := capped(t, g)
		kahn, _ := sched.KahnFIFO(g)
		if kp := m.MustPeak(kahn); kp < ar.Peak {
			t.Errorf("%s: baseline %d beats DP %d", c.Network, kp, ar.Peak)
		}
	}
}

func TestExtraCellsRewriteDirection(t *testing.T) {
	for _, c := range ExtraCells() {
		g := c.Build()
		// Both cells end in concat -> pointwise conv: the channel-wise
		// pattern must match once, in one application of the paper's rule.
		if ms := rewrite.FindMatches(g); len(ms) != 1 {
			t.Errorf("%s: matches = %d, want 1", c.Network, len(ms))
		}
		rw, apps, err := rewrite.RewriteAll(g, rewrite.DefaultRules(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(apps) != 1 || apps[0].Sites != 1 {
			t.Errorf("%s: applications = %+v, want one of one site", c.Network, apps)
		}
		before, after := capped(t, g), capped(t, rw)
		if after.Peak > before.Peak {
			t.Errorf("%s: rewriting raised peak %d -> %d", c.Network, before.Peak, after.Peak)
		}
	}
}
