package exp

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// countingStore counts the cell and lease calls a campaign makes on
// the wrapped store.
type countingStore struct {
	CellStore
	loads, stores, claims atomic.Int64
}

func (s *countingStore) LoadCell(spec RunSpec, hash string) (RunResult, bool) {
	s.loads.Add(1)
	return s.CellStore.LoadCell(spec, hash)
}

func (s *countingStore) StoreCell(rr RunResult) error {
	s.stores.Add(1)
	return s.CellStore.StoreCell(rr)
}

func (s *countingStore) Claim(hash, owner string, ttl time.Duration) (StoreLease, bool, error) {
	s.claims.Add(1)
	return s.CellStore.Claim(hash, owner, ttl)
}

func (s *countingStore) counts() string {
	return fmt.Sprintf("loads=%d stores=%d claims=%d", s.loads.Load(), s.stores.Load(), s.claims.Load())
}

func newCountingStore(t *testing.T) *countingStore {
	t.Helper()
	dir, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &countingStore{CellStore: dir}
}

// TestStoreTrafficPerMode pins how many store calls each dispatch mode
// makes per run: pool mode reads each cell once (the pre-scan; satisfy
// does not re-read a miss) and writes each cold cell once; a lone
// claimant adds at most one re-check before its Claim and one inside
// the lease per cold cell, however many worker slots it has.
func TestStoreTrafficPerMode(t *testing.T) {
	g := benchGrid()
	n := int64(len(g.Runs()))

	t.Run("pool", func(t *testing.T) {
		s := newCountingStore(t)
		if _, _, err := (&Campaign{Grid: g, Store: s, Parallel: 4, run: fakeRun}).Execute(); err != nil {
			t.Fatal(err)
		}
		if s.loads.Load() != n || s.stores.Load() != n || s.claims.Load() != 0 {
			t.Errorf("cold pool over %d runs: %s, want loads=%d stores=%d claims=0", n, s.counts(), n, n)
		}
		s.loads.Store(0)
		s.stores.Store(0)
		if _, _, err := (&Campaign{Grid: g, Store: s, Parallel: 4, run: fakeRun}).Execute(); err != nil {
			t.Fatal(err)
		}
		if s.loads.Load() != n || s.stores.Load() != 0 || s.claims.Load() != 0 {
			t.Errorf("warm pool over %d runs: %s, want loads=%d stores=0 claims=0", n, s.counts(), n)
		}
	})

	for _, parallel := range []int{1, 4} {
		t.Run(fmt.Sprintf("claim-parallel-%d", parallel), func(t *testing.T) {
			s := newCountingStore(t)
			camp := &Campaign{Grid: g, Store: s, Parallel: parallel, Claim: &ClaimOptions{Owner: "solo"}, run: fakeRun}
			_, stats, err := camp.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if int64(stats.Simulated) != n {
				t.Fatalf("simulated %d of %d runs", stats.Simulated, n)
			}
			if s.loads.Load() > 3*n || s.claims.Load() > n || s.stores.Load() > n {
				t.Errorf("cold claim over %d runs: %s, want at most loads=%d claims=%d stores=%d",
					n, s.counts(), 3*n, n, n)
			}
		})
	}
}
