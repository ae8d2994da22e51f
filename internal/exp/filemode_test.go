//go:build unix

package exp

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestWrittenFilesGroupReadable: everything a campaign writes through
// temp file + rename — a stored cell, a journal checkpoint, a trace
// artifact — gets the same mode as the journal, manifest and lease
// files beside it, so a watcher or claimant under another account on a
// shared directory can read it.
func TestWrittenFilesGroupReadable(t *testing.T) {
	defer syscall.Umask(syscall.Umask(0o022))

	store, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	spec := RunSpec{App: "matmul-hyb", Scheduler: "bf", SMPWorkers: 2, GPUs: 1, Seed: 1}
	if err := store.StoreCell(RunResult{Spec: spec, Wall: time.Second}); err != nil {
		t.Fatal(err)
	}
	spec.fillDefaults()
	paths := []string{store.path(spec.Hash()), filepath.Join(store.Dir(), manifestName)}

	jdir := store.JournalDir()
	w, err := journal.OpenRotating(jdir, "w1", 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(journal.Record{Type: journal.TypeDone, Index: i, Hash: "h", T: float64(1 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Compact(jdir); err != nil {
		t.Fatal(err)
	}
	checkpoints, err := filepath.Glob(filepath.Join(jdir, "checkpoint-*.jsonl"))
	if err != nil || len(checkpoints) == 0 {
		t.Fatalf("no checkpoint to check (glob err %v)", err)
	}
	paths = append(paths, checkpoints...)

	artifact := filepath.Join(t.TempDir(), "cell.prv")
	if err := writeArtifact(artifact, func(w io.Writer) error {
		_, err := io.WriteString(w, "trace\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	paths = append(paths, artifact)

	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != 0o644 {
			t.Errorf("%s has mode %v, want -rw-r--r--", filepath.Base(p), got)
		}
	}
}
