package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/store"
)

// populateStore compiles a builtin network with a persistent store attached,
// exactly as serenityd would, and returns the store directory.
func populateStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ss, err := serenity.OpenScheduleStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := serenity.DefaultOptions()
	opts.StepTimeout = time.Minute
	p, err := serenity.NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	p.SegmentMemo = serenity.NewSegmentMemo(256)
	p.Store = ss
	for _, g := range []*serenity.Graph{serenity.SwiftNetCellA(), serenity.SwiftNetCellB()} {
		if _, err := p.Run(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestStoreCLILifecycle(t *testing.T) {
	dir := populateStore(t)

	// ls: every artifact listed, summary line present.
	var out bytes.Buffer
	if err := storeMain([]string{"ls", "-dir", dir, "-l"}, &out); err != nil {
		t.Fatalf("ls: %v\n%s", err, out.String())
	}
	ls := out.String()
	if !strings.Contains(ls, "quality=optimal") || !strings.Contains(ls, "artifacts") {
		t.Errorf("ls output unexpected:\n%s", ls)
	}

	// verify: clean store verifies clean.
	out.Reset()
	if err := storeMain([]string{"verify", "-dir", dir}, &out); err != nil {
		t.Fatalf("verify on a clean store: %v\n%s", err, out.String())
	}

	// export -> import into a fresh directory.
	exported := filepath.Join(t.TempDir(), "corpus.dat")
	out.Reset()
	if err := storeMain([]string{"export", "-dir", dir, "-o", exported}, &out); err != nil {
		t.Fatalf("export: %v", err)
	}
	dst := t.TempDir()
	out.Reset()
	if err := storeMain([]string{"import", "-dir", dst, "-in", exported}, &out); err != nil {
		t.Fatalf("import: %v", err)
	}
	if !strings.Contains(out.String(), "imported") {
		t.Errorf("import output: %s", out.String())
	}
	// The pre-warmed replica serves the same artifacts.
	src, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rep, err := store.Open(dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	srcEntries := src.Entries()
	if len(srcEntries) == 0 || len(srcEntries) != len(rep.Entries()) {
		t.Fatalf("replica holds %d artifacts, source %d", len(rep.Entries()), len(srcEntries))
	}
	for _, e := range srcEntries {
		a, okA := src.Get(e.Key)
		b, okB := rep.Get(e.Key)
		if !okA || !okB || !bytes.Equal(a, b) {
			t.Errorf("artifact %q differs between source and replica", e.Key)
		}
	}

	// gc: compacting a store with no dead space keeps everything.
	out.Reset()
	if err := storeMain([]string{"gc", "-dir", dir}, &out); err != nil {
		t.Fatalf("gc: %v", err)
	}
	if !strings.Contains(out.String(), "compacted") {
		t.Errorf("gc output: %s", out.String())
	}
}

func TestStoreCLIVerifyFlagsCorruption(t *testing.T) {
	dir := populateStore(t)
	path := filepath.Join(dir, store.DataFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := storeMain([]string{"verify", "-dir", dir}, &out); err == nil {
		t.Fatalf("verify passed a vandalized store:\n%s", out.String())
	}
	// gc drops the damage; verify is clean afterwards.
	out.Reset()
	if err := storeMain([]string{"gc", "-dir", dir}, &out); err != nil {
		t.Fatalf("gc: %v", err)
	}
	out.Reset()
	if err := storeMain([]string{"verify", "-dir", dir}, &out); err != nil {
		t.Fatalf("verify after gc: %v\n%s", err, out.String())
	}
}

func TestStoreCLIErrors(t *testing.T) {
	if err := storeMain(nil, os.Stdout); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := storeMain([]string{"frobnicate"}, os.Stdout); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := storeMain([]string{"ls"}, os.Stdout); err == nil {
		t.Error("ls without -dir accepted")
	}
	if err := storeMain([]string{"ls", "-dir", filepath.Join(t.TempDir(), "absent")}, os.Stdout); err == nil {
		t.Error("ls on a missing directory accepted")
	}
	// Read subcommands on a directory without a store file must error and
	// must not manufacture one (a mistyped -dir is a mistake to flag).
	empty := t.TempDir()
	if err := storeMain([]string{"verify", "-dir", empty}, os.Stdout); err == nil {
		t.Error("verify on a store-less directory accepted")
	}
	if err := storeMain([]string{"gc", "-dir", empty}, os.Stdout); err == nil {
		t.Error("gc on a store-less directory accepted")
	}
	if _, err := os.Stat(filepath.Join(empty, store.DataFileName)); !os.IsNotExist(err) {
		t.Errorf("a read subcommand created %s: %v", store.DataFileName, err)
	}
	if err := storeMain([]string{"export", "-dir", t.TempDir()}, os.Stdout); err == nil {
		t.Error("export without -o accepted")
	}
	if err := storeMain([]string{"import", "-dir", t.TempDir()}, os.Stdout); err == nil {
		t.Error("import without -in accepted")
	}
}

// TestStoreCLIImportStrict: -strict turns corrupt records in the stream from
// a reported count into a non-zero exit, while a clean stream imports the
// same either way. The clean records merge regardless — strict changes the
// verdict, not the import.
func TestStoreCLIImportStrict(t *testing.T) {
	dir := populateStore(t)
	exported := filepath.Join(t.TempDir(), "corpus.dat")
	if err := storeMain([]string{"export", "-dir", dir, "-o", exported}, os.Stdout); err != nil {
		t.Fatal(err)
	}

	// A clean stream passes under -strict.
	var out bytes.Buffer
	if err := storeMain([]string{"import", "-dir", t.TempDir(), "-in", exported, "-strict"}, &out); err != nil {
		t.Fatalf("strict import of a clean stream failed: %v\n%s", err, out.String())
	}

	// Vandalize the stream mid-record.
	data, err := os.ReadFile(exported)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(exported, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Default mode: corrupt records are skipped, reported, and tolerated.
	out.Reset()
	if err := storeMain([]string{"import", "-dir", t.TempDir(), "-in", exported}, &out); err != nil {
		t.Fatalf("lenient import of a damaged stream failed: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "(0 corrupt skipped)") {
		t.Fatalf("vandalism went unnoticed: %s", out.String())
	}

	// Strict mode: same import, hard failure.
	out.Reset()
	err = storeMain([]string{"import", "-dir", t.TempDir(), "-in", exported, "-strict"}, &out)
	if err == nil {
		t.Fatalf("strict import passed a damaged stream:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("strict failure does not name the corruption: %v", err)
	}
}

// writeRecords creates a store in dir holding exactly the given records.
func writeRecords(t *testing.T, dir string, records map[string][]byte) {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for key, payload := range records {
		if wrote, err := st.PutIfAbsent(key, payload); err != nil || !wrote {
			t.Fatalf("seeding %q: wrote=%t err=%v", key, wrote, err)
		}
	}
}

func artifact(t *testing.T, order serenity.Order) []byte {
	t.Helper()
	b, err := serenity.MarshalSegmentArtifact(serenity.SearchResult{Order: order, Quality: serenity.QualityOptimal})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStoreCLIImportKeepsEstablishedRecords: import is the fleet's validated,
// first-writer-wins merge. A key the store already holds keeps its bytes, a
// CRC-clean payload that is not an artifact is skipped and counted corrupt,
// and -strict turns that count into a non-zero exit.
func TestStoreCLIImportKeepsEstablishedRecords(t *testing.T) {
	local := artifact(t, serenity.Order{0, 1, 2})
	src, dst := t.TempDir(), t.TempDir()
	writeRecords(t, src, map[string][]byte{
		"k":     artifact(t, serenity.Order{2, 1, 0}),
		"fresh": artifact(t, serenity.Order{1, 0}),
		"junk":  []byte("not an artifact"),
	})
	writeRecords(t, dst, map[string][]byte{"k": local})
	exported := filepath.Join(t.TempDir(), "corpus.dat")
	if err := storeMain([]string{"export", "-dir", src, "-o", exported}, io.Discard); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err := storeMain([]string{"import", "-dir", dst, "-in", exported, "-strict"}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 corrupt") {
		t.Fatalf("strict import of a stream with a non-artifact payload: err=%v, want a failure naming 1 corrupt record\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "imported 1 artifacts (1 corrupt skipped)") {
		t.Errorf("import output: %s", out.String())
	}
	st, err := store.OpenReadOnly(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, ok := st.Get("k"); !ok || !bytes.Equal(got, local) {
		t.Errorf("import replaced the established record for k with %x", got)
	}
	if _, ok := st.Get("junk"); ok {
		t.Error("import stored a payload that is not an artifact")
	}
	if _, ok := st.Get("fresh"); !ok {
		t.Error("import skipped a valid artifact the store lacked")
	}
}

// TestStoreCLIVerifyFlagsNonPermutation: verify judges a record by the rule
// serenityd loads with, so an order that repeats an id is damage.
func TestStoreCLIVerifyFlagsNonPermutation(t *testing.T) {
	dir := t.TempDir()
	writeRecords(t, dir, map[string][]byte{"dup": artifact(t, serenity.Order{0, 0, 1})})
	var out bytes.Buffer
	if err := storeMain([]string{"verify", "-dir", dir}, &out); err == nil {
		t.Fatalf("verify passed an order that is not a permutation:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0 decodable") || !strings.Contains(out.String(), "undecodable dup") {
		t.Errorf("verify output: %s", out.String())
	}
	out.Reset()
	if err := storeMain([]string{"ls", "-dir", dir, "-l"}, &out); err != nil || !strings.Contains(out.String(), "UNDECODABLE") {
		t.Errorf("ls -l: err=%v, want the record marked UNDECODABLE\n%s", err, out.String())
	}
}
