// Compaction runs itself: every rotating Writer folds the directory's
// closed segments right after it rotates one aside. A fleet of
// claimants — local ones, each with its own writer, and remote ones
// whose writers live in the ompss-sweepd daemon — shares one journal
// directory, and two concurrent passes would write the same checkpoint
// name and delete each other's inputs. So every Compact call takes a
// best-effort lock file first, and a pass that finds it held does
// nothing: the holder folds the same segments, or the next rotation
// does.
package journal

import (
	"fmt"
	"os"
	"time"
)

// compactLockName is the cross-process compaction mutex, a dotfile
// without the .jsonl suffix so no reader ever parses it.
const compactLockName = ".compact.lock"

// compactLockTTL bounds how long a crashed compactor's lock survives.
// Compaction is a sub-second pass over a handful of files; a lock this
// old can only be the leavings of a SIGKILLed holder, so the next
// compactor breaks it. Wall-clock by nature (cross-process liveness),
// like the claim protocol's lease TTL.
const compactLockTTL = 10 * time.Minute

// acquireCompactLock takes the lock with an exclusive create, breaking
// a stale one first. The break window is racy in the benign direction:
// two compactors that both see a stale lock can both remove it and one
// wins the recreate; the only way two could hold the lock at once is a
// compactor stalled past the TTL mid-pass, which the TTL is sized to
// make implausible (minutes of margin over a sub-second operation).
func acquireCompactLock(lock string) (bool, error) {
	for range 2 {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			host, herr := os.Hostname()
			if herr != nil || host == "" {
				host = "unknown-host"
			}
			fmt.Fprintf(f, "%s:%d\n", host, os.Getpid())
			f.Close()
			return true, nil
		}
		if !os.IsExist(err) {
			return false, fmt.Errorf("journal: acquiring compaction lock: %w", err)
		}
		fi, serr := os.Stat(lock)
		if serr != nil {
			// Lost a stat race with the holder's release: the lock is
			// free now, so the retry iteration takes it.
			continue
		}
		if time.Since(fi.ModTime()) < compactLockTTL {
			return false, nil
		}
		os.Remove(lock)
	}
	return false, nil
}
