// Package safefile writes files whole or not at all, under names every
// filesystem accepts. It is the one temp-file-and-rename sequence behind
// the campaign store's cells, the trace artifacts and the journal
// checkpoints.
package safefile

import (
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Write replaces path atomically: write fills a temp file next to it,
// which is closed (fsynced first when sync is set) and renamed over
// path. A reader sees the old file or the whole new one, never a torn
// write, and two processes writing the same path race whole renames.
// Any failure removes the temp file.
//
// The file is created mode 0644 less the umask, like the journal,
// manifest and lease files beside it, so a reader under another
// account can read everything a campaign directory holds.
func Write(path string, sync bool, write func(io.Writer) error) error {
	f, err := createTemp(path)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// createTemp is os.CreateTemp with the permissions Write promises: a
// fresh dotfile next to path, created exclusively. The dot keeps it out
// of every reader's glob, and the .tmp- suffix out of every name
// pattern a campaign directory parses.
func createTemp(path string) (*os.File, error) {
	dir, base := filepath.Split(path)
	for {
		name := filepath.Join(dir, "."+base+".tmp-"+strconv.FormatUint(rand.Uint64(), 36))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if !os.IsExist(err) {
			return f, err
		}
	}
}

// Name maps s to a filesystem-portable file stem: anything outside
// [A-Za-z0-9._-] becomes '-'.
func Name(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '-'
	}, s)
}
