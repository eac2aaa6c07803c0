package main

import (
	"testing"
	"time"
)

func TestExecuteKnownArtifacts(t *testing.T) {
	// Fast artifacts only; the heavyweight figures are covered by the
	// internal/bench tests and the root benchmarks.
	for _, name := range []string{"table1", "fig2", "fig3b"} {
		if err := execute(name, 250*time.Millisecond, 200); err != nil {
			t.Errorf("execute(%s): %v", name, err)
		}
	}
}

func TestExecuteRejectsUnknownArtifact(t *testing.T) {
	if err := execute("fig99", time.Second, 10); err == nil {
		t.Error("unknown artifact accepted")
	}
}
