package serenity

import (
	"bytes"
	"fmt"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGuards keeps ROADMAP's Settled list settled: each row is a rule — most
// often a concept the project retired — the change that settled it (by its
// CHANGES.md title), the Settled bullet the row enforces, and the search that
// keeps the tree to it. A grep row searches the same files with the same
// regexp and exclusions as the shell grep it replaced, line by line as grep -n
// does; this file is left out of every search because its table holds the
// patterns.
func TestGuards(t *testing.T) {
	tr := readTree(t)
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			if hits := g.check(tr); len(hits) > 0 {
				t.Errorf("%s\nsettled by %q; Settled: %q\n%s", g.fix, g.settledBy, g.settled, strings.Join(hits, "\n"))
			}
		})
	}
}

var guards = []struct {
	name      string
	settledBy string // the change that settled the rule, by its CHANGES.md title
	settled   string // the Settled bullet the row enforces
	fix       string // what to do instead, printed on a hit
	check     func(tree) []string
}{{
	name:      "bench-imports",
	settledBy: "One Figure 4: the paper's tables and figures are measured on serenity.Schedule",
	settled:   "internal/bench measures serenity.Schedule",
	// internal/bench reaches the DP, the partitioner and the rewriter through
	// the public API only; importing them directly is how a second,
	// unverified pipeline would grow back.
	fix: "internal/bench must not import internal/dp, internal/partition or internal/rewrite",
	check: func(tr tree) []string {
		return tr.grep(`"github.com/serenity-ml/serenity/internal/(dp|partition|rewrite)"`, and(inDir("internal/bench"), nonTest))
	},
}, {
	name:      "ladder",
	settledBy: "One probe at the cap; One exact search path",
	settled:   "One probe at the cap, with no budget ladder",
	// The AdaptiveSchedule shim in internal/dp/budget.go exists only for
	// benchmark/replay.go (budget_test.go holds it to the real search).
	fix: "the ladder vocabulary is retired: use dp.Cap + dp.ScheduleCtx or ExactDP.Search",
	check: func(tr tree) []string {
		return tr.grep(`Adaptive(Schedule|Options|Result)|BudgetLadder|ladderOf`,
			not(under("benchmark"), is("internal/dp/budget.go"), is("internal/dp/budget_test.go")))
	},
}, {
	name:      "extension-rules",
	settledBy: "One rewrite rule",
	settled:   "Four fixed stages: the rewrite stage has one rule",
	fix:       "the extension rules are retired: rewriting is the paper's partitioning patterns",
	check: func(tr tree) []string {
		return tr.grep(`ExtendedRewrite|ExtendedRules|ConcatFlatten|concatFlatten|IdentityElim|identityElim`, allFiles)
	},
}, {
	name:      "fixed-stages",
	settledBy: "Figure 4 with fixed stages; Answers, not graphs",
	settled:   "Four fixed stages; Answers, not graphs: rewriteGraph is the only production caller of FindMatches/Apply",
	// The rule framework's RewriteAll and DefaultRules remain for tests, the
	// frozen benchmark/replay.go and testdata/golden/gen.go only, and
	// Pipeline.RunIn and RewriteGraph both rewrite through rewriteGraph.
	fix: "Pipeline.Run plans the arena with alloc.Plan and rewrites through rewriteGraph (rewrite.FindMatches + rewrite.Apply), " +
		"not an Allocator plug-in or RewriteAll/DefaultRules",
	check: func(tr tree) []string {
		hits := tr.grep(`ArenaBestFit|ArenaBump|PlanBump|\.Allocator\b|type Allocator\b`, allFiles)
		compilePath := and(nonTest, not(under("internal/rewrite"), under("benchmark"), under("testdata")))
		hits = append(hits, tr.grep(`\b(RewriteAll|DefaultRules)\(`, compilePath)...)
		stage := `\brewrite\.(FindMatches|Apply)\(`
		hits = append(hits, tr.grep(stage, and(compilePath, not(is("pipeline.go"))))...)
		calls, inside := tr.count(stage, "pipeline.go", `^func rewriteGraph\(`, `^}`)
		if calls != 2 || inside != 2 {
			hits = append(hits, fmt.Sprintf("pipeline.go calls rewrite.FindMatches/Apply %d times, %d of them in rewriteGraph; want one of each, both there", calls, inside))
		}
		return hits
	},
}, {
	name:      "gc-settings",
	settledBy: "One request working set",
	settled:   "Less garbage, not a bigger heap",
	// The only memory-limit call is the governor's read of the current
	// limit, debug.SetMemoryLimit(-1).
	fix: "no non-test Go tunes the collector: allocate less, and call debug.SetMemoryLimit only to read the limit (-1)",
	check: func(tr tree) []string {
		return append(tr.grep(`\bdebug\.SetGCPercent\(`, nonTest),
			tr.grep(`\bdebug\.SetMemoryLimit\(`, nonTest, `\bdebug\.SetMemoryLimit\(-1\)`)...)
	},
}, {
	name:      "anti-entropy",
	settledBy: "Anti-entropy in one exchange over the Client's ring",
	settled:   "One anti-entropy exchange over the Client's ring",
	fix:       "the digest endpoint and -peer-join-sync are retired: one POST /v1/peer/sync per sync round",
	check: func(tr tree) []string {
		return tr.grep(`digestPath|/v1/peer/digest|peer-join-sync`, and(nonTest, not(under("benchmark"))))
	},
}, {
	name:      "admission",
	settledBy: "One admission path",
	settled:   "One admission path",
	fix: "pre-admitted work and RefinePoolOptions.Gate are retired: every compilation takes one slot in its own class " +
		"through serenityd's schedule",
	check: func(tr tree) []string {
		return append(tr.grep(`classPreAdmitted|"pre\|`, and(nonTest, not(under("benchmark")))),
			tr.grep(`^\s+Gate\b`, is("refinepool.go"))...)
	},
}, {
	name:      "one-answer-per-key",
	settledBy: "One answer per key at every layer",
	settled:   "One write rule for the memo hierarchy",
	fix: "schedule_version is retired (a refined answer is the exact answer, ETag included), and internal/store " +
		"writes through PutIfAbsent only, with Import and Export taking their filters",
	check: func(tr tree) []string {
		return append(tr.grep(`ScheduleVersion|schedule_version`, not(under("benchmark"))),
			tr.grep(`^func \([a-z]+ \*Store\) (Put|PutIf|Has|Sync|ImportFiltered|ExportFiltered)\(`, inDir("internal/store"))...)
	},
}, {
	name:      "gofmt",
	settledBy: "Slab-built graphs and recycled wire buffers",
	settled:   "Guards live in TestGuards",
	fix:       "gofmt -l lists files that are not formatted",
	check: func(tr tree) []string {
		var hits []string
		for _, f := range tr {
			if strings.HasPrefix(filepath.Base(f.path), ".") {
				continue // gofmt skips hidden files
			}
			if out, err := format.Source(f.src); err != nil {
				hits = append(hits, fmt.Sprintf("%s: %v", f.path, err))
			} else if !bytes.Equal(out, f.src) {
				hits = append(hits, f.path)
			}
		}
		return hits
	},
}, {
	name:      "fuzz-smoke",
	settledBy: "Tier-1 runs what CI runs",
	settled:   "Guards live in TestGuards",
	fix:       "every fuzz target runs in CI's fuzz seed corpus smoke: add a -fuzz line for it",
	check: func(tr tree) []string {
		ci, err := os.ReadFile(".github/workflows/ci.yml")
		if err != nil {
			return []string{err.Error()}
		}
		fuzzed := map[string]bool{}
		for _, m := range regexp.MustCompile(`-fuzz\s+(\w+)`).FindAllStringSubmatch(string(ci), -1) {
			fuzzed[m[1]] = true
		}
		var hits []string
		target := regexp.MustCompile(`^func (Fuzz\w*)\(`)
		for _, f := range tr {
			if !strings.HasSuffix(f.path, "_test.go") {
				continue
			}
			for i, line := range f.lines {
				if m := target.FindStringSubmatch(line); m != nil && !fuzzed[m[1]] {
					hits = append(hits, fmt.Sprintf("%s:%d:%s", f.path, i+1, line))
				}
			}
		}
		return hits
	},
}, {
	name:      "synchronous-disk-writes",
	settledBy: "The disk tier writes inside the walk",
	settled:   "Disk writes are synchronous inside the flight",
	// The disk write is one put-if-absent append on the walk's goroutine, so
	// the store layer holds no goroutine, channel or second lock; only the
	// fleet's replication, which waits on the network, is write-behind. The
	// groups keep this line out of a plain grep for the retired names.
	fix: "ScheduleStore writes through store.PutIfAbsent on the caller's goroutine: no write-behind queue, " +
		"writer goroutine or lock of its own",
	check: func(tr tree) []string {
		return append(tr.grep(`\bgo (func\b|[\w.]+\()|\bchan\b|sync\.RWMutex`, func(path string) bool { return path == "segstore.go" || path == "peer.go" }),
			tr.grep(`\bput(Async)\b|\bwrite(Ch)\b|\bstore(Write|WriteQueue)\b|\bDropped(Writes)\b`, nonTest)...)
	},
}, {
	name:      "one-serving-shape",
	settledBy: "serenityd runs one shape",
	settled:   "One serving shape",
	// Every component the flagless daemon builds is always built, and the
	// walk always runs inside its memo's flight: no nil check switches a
	// component off and no zero value unbounds one.
	fix: "serenityd always builds the segment memo, admission and the refinement pool and holds every compilation to " +
		"the compute budget and the node cap; walkMemo always has its memo",
	check: func(tr tree) []string {
		daemon := and(inDir("cmd/serenityd"), nonTest)
		return append(append(tr.grep(`\b(admit|refine|segMemo) [!=]= nil`, daemon),
			tr.grep(`\bmemo [!=]= nil`, is("segmemo.go"))...),
			tr.grep(`\b(computeTimeout|maxNodes|peerSlots) (> 0|<= 0)`, daemon)...)
	},
}, {
	name:      "fault-injection",
	settledBy: "Tier-1 runs what CI runs",
	settled:   "Fault injection is test code",
	fix:       "FaultTransport is a test harness: keep it in _test.go files",
	check: func(tr tree) []string {
		return tr.grep(`FaultTransport`, nonTest)
	},
}}

// srcFile is one Go file of the tree; path is slash-separated and relative
// to the repository root.
type srcFile struct {
	path  string
	src   []byte
	lines []string
}

// tree is every .go file under the repository root, as grep -r and find see
// a checkout (.git holds none).
type tree []srcFile

func readTree(t *testing.T) tree {
	t.Helper()
	var tr tree
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		tr = append(tr, srcFile{path: filepath.ToSlash(path), src: src, lines: strings.Split(string(src), "\n")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// grep returns the lines of the files in matches pattern, as path:line:text,
// dropping any line that also matches one of unless (grep -v).
func (tr tree) grep(pattern string, in func(path string) bool, unless ...string) []string {
	re := regexp.MustCompile(pattern)
	// A line that matches also matches within the whole file in multi-line
	// mode, so a file that does not cannot hold a hit.
	whole := regexp.MustCompile(`(?m)` + pattern)
	var hits []string
	for _, f := range tr {
		if f.path == "guard_test.go" || !in(f.path) || !whole.Match(f.src) {
			continue
		}
	lines:
		for i, line := range f.lines {
			if !re.MatchString(line) {
				continue
			}
			for _, u := range unless {
				if regexp.MustCompile(u).MatchString(line) {
					continue lines
				}
			}
			hits = append(hits, fmt.Sprintf("%s:%d:%s", f.path, i+1, line))
		}
	}
	return hits
}

// count returns how many lines of the file at path match pattern (grep -c),
// and how many of those lie in the ranges that open on a line matching from
// and close on the next line matching to (awk '/from/,/to/').
func (tr tree) count(pattern, path, from, to string) (all, inside int) {
	re, start, end := regexp.MustCompile(pattern), regexp.MustCompile(from), regexp.MustCompile(to)
	for _, f := range tr {
		if f.path != path {
			continue
		}
		open := false
		for _, line := range f.lines {
			if !open && start.MatchString(line) {
				open = true
			}
			if re.MatchString(line) {
				all++
				if open {
					inside++
				}
			}
			if open && end.MatchString(line) {
				open = false
			}
		}
	}
	return all, inside
}

// Path filters for grep; each mirrors a file set or an exclusion of the
// shell step it replaced.
func allFiles(string) bool { return true }

func nonTest(path string) bool { return !strings.HasSuffix(path, "_test.go") }

// inDir is a shell glob dir/*.go: the directory's own files, not its
// subdirectories'.
func inDir(dir string) func(string) bool {
	return func(path string) bool { return filepath.ToSlash(filepath.Dir(path)) == dir }
}

// under is find's -path './dir/*': any depth below dir.
func under(dir string) func(string) bool {
	return func(path string) bool { return strings.HasPrefix(path, dir+"/") }
}

func is(file string) func(string) bool {
	return func(path string) bool { return path == file }
}

func and(fs ...func(string) bool) func(string) bool {
	return func(path string) bool {
		for _, f := range fs {
			if !f(path) {
				return false
			}
		}
		return true
	}
}

// not keeps the paths that none of fs keeps.
func not(fs ...func(string) bool) func(string) bool {
	return func(path string) bool {
		for _, f := range fs {
			if f(path) {
				return false
			}
		}
		return true
	}
}
