package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/store"
)

// storeMain dispatches the `serenity store` subcommands: operational tooling
// for the persistent schedule artifact store that serenityd -store-dir
// maintains. ls, verify, and export open the store strictly read-only
// (nothing on disk is created, repaired, or renamed), so they are safe
// against a live server; gc and import rewrite the data file and must run
// against a quiesced store — two writers on one directory corrupt the tail.
// Every subcommand judges a record by the rule serenityd loads it with:
// UnmarshalSegmentArtifact, which also requires the order to be a
// permutation.
func storeMain(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: serenity store <ls|verify|gc|export|import> [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ls":
		return storeLs(rest, out)
	case "verify":
		return storeVerify(rest, out)
	case "gc":
		return storeGC(rest, out)
	case "export":
		return storeExport(rest, out)
	case "import":
		return storeImport(rest, out)
	}
	return fmt.Errorf("unknown subcommand %q (want ls, verify, gc, export, or import)", cmd)
}

// openStoreDir opens an existing store directory strictly read-only: a
// directory without a data file is an error rather than a silently created
// empty store, and nothing on disk is repaired or renamed, so inspection is
// safe while serenityd serves from the same directory.
func openStoreDir(dir string) (*store.Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("provide -dir DIR (the directory serenityd -store-dir writes)")
	}
	return store.OpenReadOnly(dir)
}

func storeLs(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serenity store ls", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory")
	long := fs.Bool("l", false, "decode each artifact and show nodes, quality, and accounting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := openStoreDir(*dir)
	if err != nil {
		return err
	}
	defer st.Close()
	entries := st.Entries()
	for _, e := range entries {
		if !*long {
			fmt.Fprintf(out, "%s\t%d bytes\n", e.Key, e.Size)
			continue
		}
		payload, ok := st.Get(e.Key)
		if !ok {
			fmt.Fprintf(out, "%s\t%d bytes\tUNREADABLE\n", e.Key, e.Size)
			continue
		}
		sr, err := serenity.UnmarshalSegmentArtifact(payload)
		if err != nil {
			fmt.Fprintf(out, "%s\t%d bytes\tUNDECODABLE: %v\n", e.Key, e.Size, err)
			continue
		}
		fmt.Fprintf(out, "%s\tnodes=%d quality=%s states=%d frontier=%d\t%d bytes\n",
			e.Key, len(sr.Order), sr.Quality, sr.StatesExplored, sr.MaxFrontier, e.Size)
	}
	s := st.Stats()
	fmt.Fprintf(out, "%d artifacts, %d live bytes, %d dead bytes (run `serenity store gc` to reclaim), %d corrupt records skipped\n",
		len(entries), s.LiveBytes, s.DeadBytes, s.CorruptRecords)
	return nil
}

func storeVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serenity store verify", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := openStoreDir(*dir)
	if err != nil {
		return err
	}
	defer st.Close()
	skippedAtOpen := st.Stats().CorruptRecords
	okCRC, badCRC := st.Verify()
	// A record can be byte-perfect yet dead to this build (alien payload
	// version, an order that is not a permutation); verify decodes too, so
	// operators learn before a restart does.
	var okDecode, badDecode int
	for _, e := range st.Entries() {
		payload, ok := st.Get(e.Key)
		if !ok {
			continue
		}
		if _, err := serenity.UnmarshalSegmentArtifact(payload); err != nil {
			badDecode++
			fmt.Fprintf(out, "undecodable %s: %v\n", e.Key, err)
			continue
		}
		okDecode++
	}
	fmt.Fprintf(out, "verified %d records: %d CRC-clean, %d decodable; %d corrupt at open, %d failed re-check, %d undecodable\n",
		okCRC+badCRC, okCRC, okDecode, skippedAtOpen, badCRC, badDecode)
	if skippedAtOpen > 0 || badCRC > 0 || badDecode > 0 {
		return fmt.Errorf("store has damage (recoverable: damaged records are recomputed on demand; run gc to drop them from disk)")
	}
	return nil
}

func storeGC(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serenity store gc", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory")
	maxBytes := fs.Int64("max-bytes", 0, "also evict least-recently-used artifacts down to this bound before compacting (0 = keep all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxBytes < 0 {
		return fmt.Errorf("negative -max-bytes %d", *maxBytes)
	}
	if *dir == "" {
		return fmt.Errorf("provide -dir DIR (the directory serenityd -store-dir writes)")
	}
	// gc repairs and rewrites; refuse to manufacture a store out of a
	// mistyped directory.
	if _, err := os.Stat(filepath.Join(*dir, store.DataFileName)); err != nil {
		return err
	}
	st, err := store.Open(*dir, *maxBytes)
	if err != nil {
		return err
	}
	defer st.Close()
	before := st.Stats()
	if err := st.Compact(); err != nil {
		return err
	}
	after := st.Stats()
	fmt.Fprintf(out, "compacted: %d -> %d file bytes (%d artifacts kept, %d evicted, %d corrupt dropped)\n",
		before.FileBytes, after.FileBytes, after.Entries, after.Evictions, after.CorruptRecords)
	return nil
}

func storeExport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serenity store export", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory")
	outPath := fs.String("o", "", "output file ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("provide -o FILE")
	}
	st, err := openStoreDir(*dir)
	if err != nil {
		return err
	}
	defer st.Close()
	w := io.Writer(os.Stdout)
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := st.Export(w, nil); err != nil {
		return err
	}
	s := st.Stats()
	fmt.Fprintf(out, "exported %d artifacts (%d live bytes)\n", s.Entries, s.LiveBytes)
	return nil
}

func storeImport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serenity store import", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (created if missing)")
	inPath := fs.String("in", "", "exported store file ('-' for stdin)")
	maxBytes := fs.Int64("max-bytes", 0, "byte bound for the destination store (0 = unbounded)")
	strict := fs.Bool("strict", false, "fail (exit non-zero) if any record in the stream was corrupt or not a valid artifact; without it such records are skipped and only reported")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("provide -dir DIR")
	}
	if *inPath == "" {
		return fmt.Errorf("provide -in FILE")
	}
	r := io.Reader(os.Stdin)
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	// The same validated, first-writer-wins merge the fleet's anti-entropy
	// runs: established records keep their bytes, and a payload that is not
	// a valid artifact is skipped and counted corrupt.
	ss, err := serenity.OpenScheduleStore(*dir, *maxBytes)
	if err != nil {
		return err
	}
	before := ss.Stats().CorruptRecords
	added, err := ss.ImportMissing(r)
	// Close syncs the merged records to disk; Stats still answers after it.
	if cerr := ss.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	s := ss.Stats()
	corrupt := s.CorruptRecords - before
	fmt.Fprintf(out, "imported %d artifacts (%d corrupt skipped); store now holds %d artifacts, %d live bytes\n",
		added, corrupt, s.Entries, s.LiveBytes)
	if *strict && corrupt > 0 {
		// The clean records are already merged and stay merged — strict mode
		// changes the verdict, not the import: a pipeline moving corpora
		// between fleets gets a hard signal that the source needs a gc.
		return fmt.Errorf("strict import: %d corrupt records in %s", corrupt, *inPath)
	}
	return nil
}
