// Fixture mirror of the repo's internal/exp store surface for the
// journalerr and typednil analyzers (receiver-package gate "exp").
package exp

import "journal"

type CellStore interface {
	StoreCell(hash string, data []byte) error
	AppendJournal(owner string, rec journal.Record) error
}

type Planner interface{ Name() string }

type DirStore struct{}

func (s *DirStore) StoreCell(hash string, data []byte) error             { return nil }
func (s *DirStore) AppendJournal(owner string, rec journal.Record) error { return nil }
