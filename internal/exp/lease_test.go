package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// assertRefused checks that a refused Claim returned an untyped nil
// StoreLease: a nil *Lease wrapped in the interface would read as a
// granted claim to every `lease == nil` caller.
func assertRefused(t *testing.T, l StoreLease, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("refused Claim errored: %v", err)
	}
	if l != nil {
		t.Fatalf("refused Claim = %#v (%T), want an untyped nil StoreLease", l, l)
	}
}

func TestLeaseAcquireContendRelease(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash := (RunSpec{App: "matmul-hyb", GPUs: 1}).Hash()

	l, reclaimed, err := cache.Claim(hash, "owner-a", time.Minute)
	if err != nil || l == nil || reclaimed {
		t.Fatalf("first Claim = %v, reclaimed=%t, %v", l, reclaimed, err)
	}
	if _, ok := l.(*Lease); !ok {
		t.Errorf("granted lease is a %T, want *Lease", l)
	}
	if l.Hash() != hash {
		t.Errorf("lease hash = %s, want %s", l.Hash(), hash)
	}
	// The lease file is self-describing JSON naming its owner.
	data, err := os.ReadFile(cache.leasePath(hash))
	if err != nil {
		t.Fatalf("lease file unreadable: %v", err)
	}
	var info leaseInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("lease file is not JSON: %v (%q)", err, data)
	}
	if info.Owner != "owner-a" || info.PID != os.Getpid() {
		t.Errorf("lease info = %+v", info)
	}

	// A second claimant must be refused while the lease is fresh.
	l2, reclaimed, err := cache.Claim(hash, "owner-b", time.Minute)
	assertRefused(t, l2, err)
	if reclaimed {
		t.Error("contended Claim reclaimed a fresh lease")
	}
	if ls, err := cache.LeaseStatuses(); err != nil || len(ls) != 1 || ls[0].Hash != hash || ls[0].Owner != "owner-a" {
		t.Errorf("LeaseStatuses() = %+v, %v", ls, err)
	}

	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	assertNoLeases(t, cache)
	// Released: the next claimant acquires without a reclaim.
	if l3, reclaimed, err := cache.Claim(hash, "owner-b", time.Minute); err != nil || l3 == nil || reclaimed {
		t.Fatalf("post-release Claim = %v, reclaimed=%t, %v", l3, reclaimed, err)
	}
}

func TestLeaseStaleReclaim(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash := (RunSpec{App: "matmul-hyb", GPUs: 1}).Hash()
	dead, _, err := cache.Claim(hash, "dead-owner", 50*time.Millisecond)
	if err != nil || dead == nil {
		t.Fatal(err)
	}
	// Not yet stale: refused, not reclaimed.
	l, reclaimed, err := cache.Claim(hash, "owner-b", 50*time.Millisecond)
	assertRefused(t, l, err)
	if reclaimed {
		t.Fatal("fresh lease reclaimed")
	}
	time.Sleep(80 * time.Millisecond) // no heartbeat: the lease goes stale
	l, reclaimed, err = cache.Claim(hash, "owner-b", 50*time.Millisecond)
	if err != nil || l == nil || !reclaimed {
		t.Fatalf("stale Claim = %v, reclaimed=%t, %v; want lease, true", l, reclaimed, err)
	}
	// The dead owner's Release must not delete the new owner's lease:
	// release is keyed by the token written into the lease body.
	if err := dead.Release(); err != nil {
		t.Fatal(err)
	}
	if ls, _ := cache.LeaseStatuses(); len(ls) != 1 || ls[0].Owner != "owner-b" {
		t.Errorf("new owner's lease destroyed by the old owner's release: %+v", ls)
	}
	// The new owner's own Release does remove it.
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	assertNoLeases(t, cache)
}

func TestLeaseHeartbeatKeepsFresh(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash := (RunSpec{App: "matmul-hyb", GPUs: 1}).Hash()
	l, _, err := cache.Claim(hash, "owner-a", 100*time.Millisecond)
	if err != nil || l == nil {
		t.Fatal(err)
	}
	// Refresh at ~TTL/3 for 3 TTLs: a rival must never get the lease.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := l.Refresh(); err != nil {
			t.Fatal(err)
		}
		if rival, reclaimed, _ := cache.Claim(hash, "owner-b", 100*time.Millisecond); rival != nil || reclaimed {
			t.Fatalf("heartbeated lease lost to a rival (reclaimed=%t)", reclaimed)
		}
		time.Sleep(30 * time.Millisecond)
	}
}

func TestLeaseRefreshAfterLossErrors(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash := (RunSpec{App: "matmul-hyb", GPUs: 1}).Hash()
	l, _, err := cache.Claim(hash, "owner-a", time.Minute)
	if err != nil || l == nil {
		t.Fatal(err)
	}
	if err := os.Remove(cache.leasePath(hash)); err != nil {
		t.Fatal(err)
	}
	if err := l.Refresh(); err == nil {
		t.Error("Refresh on a lost lease did not error")
	}
	if err := l.Release(); err != nil {
		t.Errorf("Release on a lost lease = %v, want nil", err)
	}
}

// TestLeaseNamesDoNotCollideWithCells: lease and reclaim-tombstone names
// must never be mistaken for cell files by the cache reader.
func TestLeaseNamesDoNotCollideWithCells(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{App: "matmul-hyb", GPUs: 1}
	spec.fillDefaults()
	if l, _, err := cache.Claim(spec.Hash(), "owner-a", time.Minute); err != nil || l == nil {
		t.Fatal(err)
	}
	if _, ok := cache.LoadCell(spec, spec.Hash()); ok {
		t.Fatal("a lease file read as a cached cell")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".json" {
			t.Errorf("lease artifact %q could shadow a cell file", e.Name())
		}
	}
}
