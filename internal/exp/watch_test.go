package exp

import (
	"os"
	"testing"
	"time"
)

// TestLeaseStatusesKeepsUnreadableLease: a lease whose body cannot be
// parsed (torn mid-write, garbage) is still listed as in-flight with an
// unknown owner — a watcher must never under-report the fleet because
// one lease file is misbehaving.
func TestLeaseStatusesKeepsUnreadableLease(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Claim("aaaa1111", "good-owner", DefaultLeaseTTL); err != nil {
		t.Fatal(err)
	}
	// A lease torn mid-write: the file exists, the JSON does not parse.
	if err := os.WriteFile(cache.leasePath("bbbb2222"), []byte(`{"owner":"half`), 0o644); err != nil {
		t.Fatal(err)
	}

	leases, err := cache.LeaseStatuses()
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 2 {
		t.Fatalf("LeaseStatuses dropped a lease: got %d, want 2 (%+v)", len(leases), leases)
	}
	byHash := map[string]LeaseStatus{}
	for _, l := range leases {
		byHash[l.Hash] = l
	}
	if got := byHash["aaaa1111"]; got.Owner != "good-owner" {
		t.Errorf("readable lease owner = %q, want good-owner", got.Owner)
	}
	if got := byHash["bbbb2222"]; got.Owner != "?" || got.Host != "?" {
		t.Errorf("unreadable lease = %+v, want owner/host \"?\"", got)
	}
}

// TestLeaseAgesUseHeartbeatClock: lease ages are measured against the
// freshest heartbeat mtime — the claimants' own clock frame — so a
// watcher whose clock disagrees with the fleet's (here: every claimant
// runs two minutes ahead) still sees a missed heartbeat for what it is,
// and never mislabels a fresh one.
func TestLeaseAgesUseHeartbeatClock(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"cafe0001", "cafe0002"} {
		if _, _, err := cache.Claim(h, "owner-"+h, DefaultLeaseTTL); err != nil {
			t.Fatal(err)
		}
	}
	// Claimant clocks run 2min ahead of this (watcher) host. One lease
	// heartbeats on time, the other missed 25s of beats.
	fleetNow := time.Now().Add(2 * time.Minute)
	if err := os.Chtimes(cache.leasePath("cafe0001"), fleetNow, fleetNow); err != nil {
		t.Fatal(err)
	}
	behind := fleetNow.Add(-25 * time.Second)
	if err := os.Chtimes(cache.leasePath("cafe0002"), behind, behind); err != nil {
		t.Fatal(err)
	}

	leases, err := cache.LeaseStatuses()
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 2 {
		t.Fatalf("got %d leases, want 2", len(leases))
	}
	// Stalest-first: the missed-beats lease leads with its true 25s age;
	// the fresh one reads ~0, not the -2min a local-clock diff would give.
	if leases[0].Hash != "cafe0002" || leases[0].Age != 25*time.Second {
		t.Errorf("stale lease = %s age=%v, want cafe0002 age=25s", leases[0].Hash, leases[0].Age)
	}
	if leases[1].Age != 0 {
		t.Errorf("fresh lease age = %v, want 0 in the heartbeat clock frame", leases[1].Age)
	}
}

// TestWatcherAgesLeaseAcrossPolls: when no peer heartbeat anchors the
// snapshot frame (a lone dead claimant), the polling watcher ages the
// unmoving mtime on its own clock between polls — so staleness is still
// detected, at true rate, under arbitrary cross-host skew.
func TestWatcherAgesLeaseAcrossPolls(t *testing.T) {
	cache, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Claim("dead0001", "loner", DefaultLeaseTTL); err != nil {
		t.Fatal(err)
	}
	// The claimant's clock is an hour ahead; it dies right after its
	// first heartbeat.
	skewed := time.Now().Add(time.Hour)
	if err := os.Chtimes(cache.leasePath("dead0001"), skewed, skewed); err != nil {
		t.Fatal(err)
	}

	w, err := NewWatcher(cache, smallGrid(1))
	if err != nil {
		t.Fatal(err)
	}
	st1, err := w.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st1.Leases) != 1 {
		t.Fatalf("got %d leases, want 1", len(st1.Leases))
	}
	time.Sleep(30 * time.Millisecond)
	st2, err := w.Status()
	if err != nil {
		t.Fatal(err)
	}
	grown := st2.Leases[0].Age - st1.Leases[0].Age
	if grown < 20*time.Millisecond || grown > 10*time.Second {
		t.Errorf("dead lease aged by %v across a 30ms poll gap, want ~30ms", grown)
	}

	// A heartbeat (mtime change) resets the observed age.
	beat := skewed.Add(time.Minute)
	if err := os.Chtimes(cache.leasePath("dead0001"), beat, beat); err != nil {
		t.Fatal(err)
	}
	st3, err := w.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st3.Leases[0].Age >= st2.Leases[0].Age {
		t.Errorf("age after heartbeat = %v, want reset below %v", st3.Leases[0].Age, st2.Leases[0].Age)
	}
}
