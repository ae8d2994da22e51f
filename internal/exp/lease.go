package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// DefaultLeaseTTL is the staleness threshold for cell leases: a lease
// whose file mtime is older than the TTL is presumed abandoned (its
// owner crashed or lost the filesystem) and may be reclaimed by any
// other claimant. Live owners refresh the mtime every TTL/4 (see
// ClaimOptions), so a healthy lease is never within a factor of four of
// expiring. On a shared filesystem the TTL must also absorb
// cross-host clock skew; 30s is comfortable for NFS-class setups.
const DefaultLeaseTTL = 30 * time.Second

// leaseNonce makes every lease token unique within a process, so two
// leases taken by the same owner (or a release racing a reclaim) can
// always tell their files apart.
var leaseNonce atomic.Uint64

// leaseInfo is the JSON body of a lease file. It exists for operators
// (ls + cat tells you who is simulating a cell) and for ownership
// verification on release; liveness is carried by the file mtime, not
// the body.
type leaseInfo struct {
	Owner    string    `json:"owner"`
	Host     string    `json:"host"`
	PID      int       `json:"pid"`
	Token    string    `json:"token"`
	Acquired time.Time `json:"acquired"`
}

// Lease is DirStore's StoreLease, a held claim on one cell of a shared
// directory: while it exists (and is refreshed), no other claimant
// simulates that spec hash.
type Lease struct {
	path  string
	hash  string
	token string
}

// Hash returns the spec hash the lease covers.
func (l *Lease) Hash() string { return l.hash }

// leaseSuffix is the lease-file naming convention; leaseHashFromName is
// its single inverse, used by the LeaseStatuses directory scan so the
// convention cannot drift from leasePath.
const leaseSuffix = ".json.lease"

func (c *DirStore) leasePath(hash string) string {
	return c.path(hash) + ".lease" // <dir>/<sha256> + leaseSuffix
}

// leaseHashFromName extracts the spec hash from a lease file name, false
// for anything that is not a lease (cells, tombstones, temp files).
func leaseHashFromName(name string) (string, bool) {
	n := len(name) - len(leaseSuffix)
	if n <= 0 || name[n:] != leaseSuffix {
		return "", false
	}
	return name[:n], true
}

// defaultOwner identifies this process in lease files and stats lines.
func defaultOwner() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown-host"
	}
	return host + ":" + strconv.Itoa(os.Getpid())
}

// Claim implements CellStore: it attempts to claim a cell by atomically
// creating <dir>/<hash>.json.lease (O_CREATE|O_EXCL — the only
// acquisition primitive, so at most one claimant holds a cell at a
// time). A granted claim is a *Lease; a nil lease with a nil error means
// the cell is held by a live peer, and the caller moves on and retries
// later. Every refusal returns an untyped nil interface, never a nil
// *Lease inside one. An existing lease whose mtime is older than ttl is
// broken first (see breakStaleLease); reclaimed reports whether this
// call broke one, whether or not it then won the re-acquisition race.
func (c *DirStore) Claim(hash, owner string, ttl time.Duration) (l StoreLease, reclaimed bool, err error) {
	if owner == "" {
		owner = defaultOwner()
	}
	host, _ := os.Hostname()
	path := c.leasePath(hash)
	token := fmt.Sprintf("%s#%d", owner, leaseNonce.Add(1))
	// Two attempts: the second covers a lease that vanished (released or
	// reclaimed) between our failed create and our stat.
	for attempt := 0; attempt < 2; attempt++ {
		f, cerr := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if cerr == nil {
			body, _ := json.Marshal(leaseInfo{
				Owner: owner, Host: host, PID: os.Getpid(),
				Token: token, Acquired: time.Now().UTC(),
			})
			if _, werr := f.Write(append(body, '\n')); werr != nil {
				f.Close()
				os.Remove(path)
				return nil, reclaimed, fmt.Errorf("exp: writing lease: %w", werr)
			}
			if werr := f.Close(); werr != nil {
				os.Remove(path)
				return nil, reclaimed, fmt.Errorf("exp: writing lease: %w", werr)
			}
			return &Lease{path: path, hash: hash, token: token}, reclaimed, nil
		}
		if !os.IsExist(cerr) {
			return nil, reclaimed, fmt.Errorf("exp: acquiring lease: %w", cerr)
		}
		fi, serr := os.Lstat(path)
		if serr != nil {
			continue // vanished between create and stat: retry the create
		}
		if time.Since(fi.ModTime()) <= ttl {
			return nil, reclaimed, nil // held by a live peer
		}
		if c.breakStaleLease(path, ttl) {
			reclaimed = true
		}
		// Whether or not we won the break, retry the create once: the
		// O_EXCL race decides the new owner.
	}
	return nil, reclaimed, nil
}

// breakStaleLease removes a lease the caller observed stale. Removal
// must not race another reclaimer into a double-grant, so the stale file
// is first renamed to a unique tombstone — rename is atomic, exactly one
// breaker wins, the losers see ENOENT and back off. The winner then
// re-checks staleness on the tombstone: if the file is in fact fresh
// (the stale lease was reclaimed and re-granted between our stat and our
// rename), the steal is undone by hard-linking the tombstone back —
// link, unlike rename, refuses to clobber a lease created in the
// meantime. In that refusal case a live owner loses its lease file; its
// heartbeat fails loudly and, at worst, one cell is simulated twice with
// byte-identical results (stores are idempotent), never corrupted.
func (c *DirStore) breakStaleLease(path string, ttl time.Duration) bool {
	tomb := fmt.Sprintf("%s.reclaim-%d-%d", path, os.Getpid(), leaseNonce.Add(1))
	if err := os.Rename(path, tomb); err != nil {
		return false // another breaker won, or the owner released
	}
	if fi, err := os.Lstat(tomb); err == nil && time.Since(fi.ModTime()) <= ttl {
		os.Link(tomb, path) // best-effort restore of a stolen live lease
		os.Remove(tomb)
		return false
	}
	os.Remove(tomb)
	return true
}

// Refresh heartbeats the lease by bumping its file mtime. An error means
// the lease file is gone or unreachable — the claim may have been
// reclaimed as stale; the holder should finish (and store) its run
// anyway, since results are deterministic and stores idempotent.
func (l *Lease) Refresh() error {
	now := time.Now()
	if err := os.Chtimes(l.path, now, now); err != nil {
		return fmt.Errorf("exp: lease heartbeat for %s: %w", l.hash, err)
	}
	return nil
}

// Release removes the lease file, but only if it is still ours: after a
// (pathological) stale-break race the path can name a different
// claimant's lease, which must not be deleted from under them.
func (l *Lease) Release() error {
	data, err := os.ReadFile(l.path)
	if err != nil {
		return nil // already gone: reclaimed or never written
	}
	var info leaseInfo
	if json.Unmarshal(data, &info) != nil || info.Token != l.token {
		return nil // someone else's lease now
	}
	if err := os.Remove(l.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("exp: releasing lease for %s: %w", l.hash, err)
	}
	return nil
}
