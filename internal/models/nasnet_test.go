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
		// pattern must match, and extended rules must also fire on the
		// Identity skip connections.
		if ms := rewrite.FindMatches(g); len(ms) != 1 {
			t.Errorf("%s: matches = %d, want 1", c.Network, len(ms))
		}
		ext, apps, err := rewrite.RewriteAll(g, rewrite.ExtendedRules(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(apps) < 2 {
			t.Errorf("%s: extended applications = %+v", c.Network, apps)
		}
		before, after := capped(t, g), capped(t, ext)
		if after.Peak > before.Peak {
			t.Errorf("%s: extended rewriting raised peak %d -> %d", c.Network, before.Peak, after.Peak)
		}
	}
}
