package journal

import (
	"sort"
)

// Cell is one campaign cell's replayed state: a tiny state machine fed
// by that cell's records in time order. Counters are kept instead of
// booleans so replay can report protocol violations (a cell simulated
// twice) rather than silently collapsing them. The JSON tags are the
// checkpoint serialization (see Checkpoint); they never appear in live
// journal lines.
type Cell struct {
	// Hash is the cell's spec content hash (the state-machine key).
	Hash string `json:"hash"`
	// Index is the cell's expansion-order position (from the first
	// record that named it).
	Index int `json:"index"`
	// Started and Completed are the first start / first completion
	// times (Unix seconds; 0 = never observed).
	Started   float64 `json:"started,omitempty"`
	Completed float64 `json:"completed,omitempty"`
	// Done counts "done" records for this cell across every claimant.
	// Exactly-once simulation means Done <= 1 everywhere.
	Done int `json:"done,omitempty"`
	// Cached counts "cached" observations. Several claimants legally
	// observe the same cell cached (each pre-scans the cache), so this
	// is a view count, not a completion count.
	Cached int `json:"cached,omitempty"`
	// Skipped counts budget skips of this cell.
	Skipped int `json:"skipped,omitempty"`
	// Claimed and Reclaimed count lease events naming this cell —
	// Claimed > 1 or Reclaimed > 0 marks a contended cell.
	Claimed   int `json:"claimed,omitempty"`
	Reclaimed int `json:"reclaimed,omitempty"`
	// DoneT is the time of the earliest done record (0 = never
	// simulated); the attribution fields below stick to it. On a
	// double-done the first simulation keeps the attribution: later
	// records only grow Done.
	DoneT float64 `json:"done_t,omitempty"`
	// DoneOwner is the owner tag of the claimant whose done record was
	// earliest ("" when no done record was seen).
	DoneOwner string `json:"done_owner,omitempty"`
	// WallSec is the earliest done record's wall cost.
	WallSec float64 `json:"wall_s,omitempty"`
}

// Owner aggregates one claimant's activity across all its sessions.
// JSON tags are the checkpoint serialization.
type Owner struct {
	// Name is the owner tag.
	Name string `json:"name"`
	// Opens counts writer sessions: 1 for a claimant that ran once,
	// more for one restarted after a crash.
	Opens int `json:"opens,omitempty"`
	// Host and PID are from the most recent open record; OpenT is that
	// record's time, kept so checkpoint merges preserve "most recent".
	Host  string  `json:"host,omitempty"`
	PID   int     `json:"pid,omitempty"`
	OpenT float64 `json:"open_t,omitempty"`
	// Claimed, Done, Cached, Reclaimed and Skipped count this owner's
	// records of each type.
	Claimed   int `json:"claimed,omitempty"`
	Done      int `json:"done,omitempty"`
	Cached    int `json:"cached,omitempty"`
	Reclaimed int `json:"reclaimed,omitempty"`
	Skipped   int `json:"skipped,omitempty"`
	// CostSec is the summed wall cost of this owner's simulations.
	CostSec float64 `json:"cost_s,omitempty"`
	// First and Last bound this owner's records in time.
	First float64 `json:"first,omitempty"`
	Last  float64 `json:"last,omitempty"`
}

// Completion is one completion observation — a done record, or a
// cell's first cached observation — kept so rates can be computed over
// a recent window, not just the whole history. Owner is set for done
// records only (cached observations are fleet progress, not any one
// claimant's work). JSON tags are the checkpoint serialization.
type Completion struct {
	T     float64 `json:"t"`
	Cost  float64 `json:"cost,omitempty"`
	Owner string  `json:"owner,omitempty"`
}

// Timeline is a whole campaign's history replayed from the merged
// journals of every claimant.
type Timeline struct {
	// Cells maps spec hash to replayed cell state.
	Cells map[string]*Cell
	// Owners maps owner tag to aggregated claimant activity.
	Owners map[string]*Owner
	// First and Last bound every record in time (Unix seconds; both 0
	// for an empty timeline).
	First, Last float64
	// Done is the number of distinct cells with at least one done
	// record: cells this campaign's claimants simulated.
	Done int
	// CachedOnly is the number of distinct cells observed cached but
	// never simulated in the replayed history (warm cells from an
	// earlier campaign).
	CachedOnly int
	// SkippedOnly is the number of distinct cells budget-skipped and
	// never completed by anyone.
	SkippedOnly int
	// DoubleDone counts cells with more than one done record — the
	// exactly-once violation counter, 0 on every healthy campaign.
	DoubleDone int
	// CostSec is the summed wall cost of every done record.
	CostSec float64
	// Compacted is the number of raw records folded away into the
	// checkpoint records this replay consumed (0 on an uncompacted
	// journal).
	Compacted int

	// completions backs the windowed rates: one entry per done record
	// and per cell's first cached observation, in record order.
	completions []Completion
}

// Replay folds records (as ReadDir or a Tailer's Poll returns them:
// time-ordered, from newline-terminated lines only) into a campaign
// timeline. Checkpoint records — the compacted remains of
// rotated-away journal segments — are folded first regardless of their
// position, so live records always land on top of the compacted state
// exactly as they would have landed on the raw segments.
func Replay(recs []Record) *Timeline {
	t := &Timeline{
		Cells:  make(map[string]*Cell),
		Owners: make(map[string]*Owner),
	}
	for _, r := range recs {
		if r.Type == TypeCheckpoint && r.Checkpoint != nil {
			t.fold(r.Checkpoint)
		}
	}
	cell := func(r Record) *Cell {
		key := r.Hash
		if key == "" {
			return nil // open records, or a journal from a cacheless run
		}
		c := t.Cells[key]
		if c == nil {
			c = &Cell{Hash: key}
			t.Cells[key] = c
		}
		if r.Type != TypeReclaimed {
			// Reclaimed records carry no index (it is always zero
			// there); every other cell record carries the true one, so
			// refresh on each — a cell first seen through a reclaim, or
			// through a checkpoint built from one, still ends up
			// correctly indexed.
			c.Index = r.Index
		}
		return c
	}
	for _, r := range recs {
		if r.Type == TypeCheckpoint {
			continue // folded above; carries no claimant activity of its own
		}
		if t.First == 0 || r.T < t.First {
			t.First = r.T
		}
		if r.T > t.Last {
			t.Last = r.T
		}
		o := t.Owners[r.Owner]
		if o == nil {
			o = &Owner{Name: r.Owner, First: r.T}
			t.Owners[r.Owner] = o
		}
		if r.T < o.First {
			o.First = r.T
		}
		if r.T > o.Last {
			o.Last = r.T
		}
		switch r.Type {
		case TypeOpen:
			o.Opens++
			if r.T >= o.OpenT {
				o.Host, o.PID, o.OpenT = r.Host, r.PID, r.T
			}
		case TypeStarted:
			if c := cell(r); c != nil && (c.Started == 0 || r.T < c.Started) {
				c.Started = r.T
			}
		case TypeDone:
			o.Done++
			o.CostSec += r.WallSec
			t.CostSec += r.WallSec
			t.completions = append(t.completions, Completion{T: r.T, Cost: r.WallSec, Owner: r.Owner})
			if c := cell(r); c != nil {
				c.Done++
				// First simulation keeps the attribution: on an
				// exactly-once violation the later done record must not
				// re-blame the cell or re-cost the histogram.
				if c.DoneT == 0 || r.T < c.DoneT {
					c.DoneT = r.T
					c.DoneOwner = r.Owner
					c.WallSec = r.WallSec
				}
				if c.Completed == 0 || r.T < c.Completed {
					c.Completed = r.T
				}
			}
		case TypeCached:
			o.Cached++
			if c := cell(r); c != nil {
				c.Cached++
				if c.Cached == 1 && c.Done == 0 {
					// Only a cell's first cached observation is campaign
					// progress; every further claimant seeing it is not.
					t.completions = append(t.completions, Completion{T: r.T})
				}
				if c.Completed == 0 || r.T < c.Completed {
					c.Completed = r.T
				}
			}
		case TypeClaimed:
			o.Claimed++
			if c := cell(r); c != nil {
				c.Claimed++
			}
		case TypeReclaimed:
			o.Reclaimed++
			if c := cell(r); c != nil {
				c.Reclaimed++
			}
		case TypeSkipped:
			o.Skipped++
			if c := cell(r); c != nil {
				c.Skipped++
			}
		}
	}
	for _, c := range t.Cells {
		switch {
		case c.Done > 0:
			t.Done++
			if c.Done > 1 {
				t.DoubleDone++
			}
		case c.Cached > 0:
			t.CachedOnly++
		case c.Skipped > 0:
			t.SkippedOnly++
		}
	}
	return t
}

// fold merges one checkpoint's compacted state into the timeline. The
// merge rules mirror what replaying the folded raw records would have
// produced: earliest-wins for Started/Completed and the done
// attribution, sums for counters, most-recent-open-wins for Host/PID.
func (t *Timeline) fold(ck *Checkpoint) {
	if ck.First != 0 && (t.First == 0 || ck.First < t.First) {
		t.First = ck.First
	}
	if ck.Last > t.Last {
		t.Last = ck.Last
	}
	t.Compacted += ck.Records
	t.CostSec += ck.CostSec
	for i := range ck.Cells {
		cc := &ck.Cells[i]
		c := t.Cells[cc.Hash]
		if c == nil {
			dup := *cc
			t.Cells[cc.Hash] = &dup
			continue
		}
		if c.Index == 0 {
			// A zero index on the in-progress side may mean "only seen
			// reclaimed so far"; the checkpoint's index is at least as
			// informed. (Both zero is a genuine index 0 — harmless.)
			c.Index = cc.Index
		}
		if cc.Started != 0 && (c.Started == 0 || cc.Started < c.Started) {
			c.Started = cc.Started
		}
		if cc.Completed != 0 && (c.Completed == 0 || cc.Completed < c.Completed) {
			c.Completed = cc.Completed
		}
		if cc.Done > 0 && (c.Done == 0 || cc.DoneT < c.DoneT) {
			c.DoneT, c.DoneOwner, c.WallSec = cc.DoneT, cc.DoneOwner, cc.WallSec
		}
		c.Done += cc.Done
		c.Cached += cc.Cached
		c.Skipped += cc.Skipped
		c.Claimed += cc.Claimed
		c.Reclaimed += cc.Reclaimed
	}
	for i := range ck.Owners {
		oo := &ck.Owners[i]
		o := t.Owners[oo.Name]
		if o == nil {
			dup := *oo
			t.Owners[oo.Name] = &dup
			continue
		}
		if oo.OpenT >= o.OpenT {
			o.Host, o.PID, o.OpenT = oo.Host, oo.PID, oo.OpenT
		}
		o.Opens += oo.Opens
		o.Claimed += oo.Claimed
		o.Done += oo.Done
		o.Cached += oo.Cached
		o.Reclaimed += oo.Reclaimed
		o.Skipped += oo.Skipped
		o.CostSec += oo.CostSec
		if oo.First != 0 && (o.First == 0 || oo.First < o.First) {
			o.First = oo.First
		}
		if oo.Last > o.Last {
			o.Last = oo.Last
		}
	}
	t.completions = append(t.completions, ck.Completions...)
}

// Span is the timeline's wall-clock extent in seconds.
func (t *Timeline) Span() float64 {
	if t.Last <= t.First {
		return 0
	}
	return t.Last - t.First
}

// rates summarizes throughput over the whole timeline span:
// cellsPerSec counts completions (simulated cells plus cached-only
// observations — campaign progress as a watcher sees it), and
// costPerSec is simulation cost retired per wall second (the fleet's
// effective parallel speed, the divisor for cost-model ETAs). Both are
// 0 when the span is degenerate. For live dashboards use RatesWindow:
// all-time rates average over every idle gap a resumed campaign's
// history contains.
func (t *Timeline) rates() (cellsPerSec, costPerSec float64) {
	span := t.Span()
	if span <= 0 {
		return 0, 0
	}
	return float64(t.Done+t.CachedOnly) / span, t.CostSec / span
}

// RatesWindow is rates restricted to the trailing window (seconds)
// before now — the live view: a campaign resumed after days of idle
// reports its current throughput, not the average over the gap, and a
// fleet that died decays to zero as now moves past its last record
// instead of reporting its old rate forever. A now earlier than the
// newest record (cross-host clock skew) is clamped to it, and a
// non-positive window falls back to the all-time rates.
func (t *Timeline) RatesWindow(now, window float64) (cellsPerSec, costPerSec float64) {
	if window <= 0 {
		return t.rates()
	}
	if now < t.Last {
		now = t.Last
	}
	start := now - window
	if start < t.First {
		start = t.First
	}
	span := now - start
	if span <= 0 {
		return 0, 0
	}
	n, cost := 0, 0.0
	for _, c := range t.completions {
		if c.T >= start {
			n++
			cost += c.Cost
		}
	}
	return float64(n) / span, cost / span
}

// OwnerRatesWindow is the per-claimant companion of RatesWindow: each
// owner's simulations per second over the same trailing window, with
// the same now-clamping. Owners with no done record in the window
// report zero — on a live dashboard, a claimant that stopped working
// should read as stopped, not as its lifetime average.
func (t *Timeline) OwnerRatesWindow(now, window float64) map[string]float64 {
	out := make(map[string]float64, len(t.Owners))
	for name := range t.Owners {
		out[name] = 0
	}
	if window <= 0 {
		window = t.Span()
	}
	if now < t.Last {
		now = t.Last
	}
	start := now - window
	if start < t.First {
		start = t.First
	}
	span := now - start
	if span <= 0 {
		return out
	}
	for _, c := range t.completions {
		if c.Owner != "" && c.T >= start {
			out[c.Owner] += 1 / span
		}
	}
	return out
}

// OwnerNames lists the owners sorted by tag, for deterministic
// rendering.
func (t *Timeline) OwnerNames() []string {
	names := make([]string, 0, len(t.Owners))
	for n := range t.Owners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CellsByIndex lists the cells sorted by expansion index (ties by
// hash), for deterministic rendering.
func (t *Timeline) CellsByIndex() []*Cell {
	cells := make([]*Cell, 0, len(t.Cells))
	for _, c := range t.Cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Index != cells[j].Index {
			return cells[i].Index < cells[j].Index
		}
		return cells[i].Hash < cells[j].Hash
	})
	return cells
}

// HistogramBounds are the wall-cost bucket upper bounds (seconds) used
// by CostHistogram: <1ms, <10ms, <100ms, <1s, <10s, and an implicit
// overflow bucket.
var HistogramBounds = []float64{0.001, 0.01, 0.1, 1, 10}

// CostHistogram buckets the wall cost of every simulated cell into
// HistogramBounds plus a final overflow bucket (len(HistogramBounds)+1
// counts in total).
func (t *Timeline) CostHistogram() []int {
	counts := make([]int, len(HistogramBounds)+1)
	for _, c := range t.Cells {
		if c.Done == 0 {
			continue
		}
		i := sort.SearchFloat64s(HistogramBounds, c.WallSec)
		if i < len(HistogramBounds) && c.WallSec == HistogramBounds[i] {
			i++ // bounds are exclusive upper edges
		}
		counts[i]++
	}
	return counts
}
