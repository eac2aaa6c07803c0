package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/models"
)

func TestRunWritesJSONAndDOT(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "g.json")
	dotPath := filepath.Join(dir, "g.dot")
	if err := run("swiftnet-b", jsonPath, dotPath, 0, 0, 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := serenity.ReadGraphJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != serenity.SwiftNetCellB().NumNodes() {
		t.Error("JSON round trip changed the graph")
	}
	dot, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), "digraph") {
		t.Error("DOT output malformed")
	}
}

// TestGeneratedJSONSchedulesEndToEnd: graphgen output feeds the scheduler.
func TestGeneratedJSONSchedulesEndToEnd(t *testing.T) {
	g, err := models.ByName("randwire", models.WSConfig{Nodes: 12, K: 4, P: 0.75, Seed: 9, HW: 8, Channel: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := serenity.Schedule(g, serenity.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Peak <= 0 || res.Peak > res.BaselinePeak {
		t.Errorf("peak %d baseline %d", res.Peak, res.BaselinePeak)
	}
}

// TestRunRejectsBadWSConfig: a randwire config no Watts–Strogatz cell fits is
// a one-line error for main to print, not a panic, and writes nothing.
func TestRunRejectsBadWSConfig(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.json")
	err := run("randwire", out, "", 32, 3, 0.75, 101, 32, 16)
	if err == nil || strings.Contains(err.Error(), "\n") {
		t.Fatalf("run with k=3: err = %v, want a one-line error", err)
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Errorf("run with k=3 created %s", out)
	}
}
