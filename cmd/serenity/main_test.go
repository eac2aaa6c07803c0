package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
)

func TestLoadGraphBuiltins(t *testing.T) {
	for _, name := range []string{"darts", "swiftnet", "swiftnet-a", "swiftnet-b", "swiftnet-c", "randwire"} {
		g, err := loadGraph("", name)
		if err != nil {
			t.Errorf("builtin %s: %v", name, err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", name, err)
		}
	}
	if _, err := loadGraph("", "bogus"); err == nil {
		t.Error("bogus builtin accepted")
	}
	if _, err := loadGraph("", ""); err == nil {
		t.Error("missing input accepted")
	}
}

func TestLoadGraphFromJSONFile(t *testing.T) {
	g := serenity.SwiftNetCellC()
	var buf bytes.Buffer
	if err := serenity.WriteGraphJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadGraph(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() {
		t.Errorf("round trip node count %d != %d", got.NumNodes(), g.NumNodes())
	}
}

func TestRunEndToEnd(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "out.dot")
	err := run("", "swiftnet-c", "250KiB", dot, false, false, time.Second, "exact", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("digraph")) {
		t.Error("DOT output malformed")
	}
}

func TestRunStrategies(t *testing.T) {
	for _, strategy := range []string{"greedy", "best-effort"} {
		if err := run("", "swiftnet-c", "", "", false, false, time.Second, strategy, 0, true); err != nil {
			t.Errorf("strategy %s: %v", strategy, err)
		}
	}
	if err := run("", "swiftnet-c", "", "", false, false, time.Second, "bogus", 0, true); err == nil {
		t.Error("bogus strategy accepted")
	}
	// A deadline the DP cannot meet must still succeed under best-effort.
	if err := run("", "randwire", "", "", false, false, time.Second, "best-effort", 30*time.Millisecond, true); err != nil {
		t.Errorf("best-effort under deadline: %v", err)
	}
}

func TestRunBudgetExceeded(t *testing.T) {
	err := run("", "swiftnet-a", "1", "", false, false, time.Second, "exact", 0, true)
	if _, ok := err.(*serenity.ErrBudgetExceeded); !ok {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}
