package exp_test

// The CellStore conformance battery, run against the reference
// implementation. The HTTP store runs the identical battery from
// internal/sweepd, which is the point: the suite, not the type system,
// defines what "implements CellStore" means.

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/exp/storetest"
)

func TestDirStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storetest.Env {
		ds, err := exp.OpenDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		return storetest.Env{
			Store:      ds,
			CellReads:  ds.CellReads,
			JournalDir: ds.JournalDir(),
			SetRotate:  ds.SetJournalRotateBytes,
		}
	})
}
