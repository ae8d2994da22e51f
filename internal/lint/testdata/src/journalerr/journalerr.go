// Fixture for the journalerr analyzer: errors from journal appends
// and cell-store mutations must be propagated (or explicitly allowed)
// — even `_ =` discards are findings, unlike a general errcheck.
package journalerr

import (
	"exp"
	"journal"
)

func Drop(w *journal.Writer, rec journal.Record) {
	w.Append(rec) // want "error from Writer.Append discarded"
}

func Blank(w *journal.Writer, rec journal.Record) {
	_ = w.Append(rec) // want "error from Writer.Append assigned to _"
}

func Deferred(w *journal.Writer, rec journal.Record) {
	defer w.Append(rec) // want "error from Writer.Append discarded by defer"
}

func Async(w *journal.Writer, rec journal.Record) {
	go w.Append(rec) // want "error from Writer.Append discarded by go statement"
}

func StoreDrop(s exp.CellStore, rec journal.Record) {
	s.AppendJournal("w1", rec) // want "error from CellStore.AppendJournal discarded"
	s.StoreCell("h", nil)      // want "error from CellStore.StoreCell discarded"
}

// Checked propagation in any form is fine.
func Checked(w *journal.Writer, rec journal.Record) error {
	return w.Append(rec)
}

func CheckedIf(s exp.CellStore, rec journal.Record) error {
	if err := s.AppendJournal("w1", rec); err != nil {
		return err
	}
	return nil
}

// Close is not a mutation method: dropping its error is out of scope
// for this analyzer.
func CloseDrop(w *journal.Writer) {
	w.Close()
}

func BestEffort(w *journal.Writer, rec journal.Record) {
	//ompssvet:allow journalerr fixture: best-effort telemetry, loss acceptable
	w.Append(rec)
}
