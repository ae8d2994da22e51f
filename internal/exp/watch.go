package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/journal"
)

// Campaign observability for multi-host runs: a watcher process tails
// the shared cache directory — the same coordination substrate the
// claimants use — and needs no connection to any worker. Status is a
// point-in-time snapshot of the cells and leases; JournalStatus layers
// the claimants' persisted event history on top (throughput, per-owner
// rates, a cost-model ETA), so `ompss-sweep -watch` can show where the
// campaign is going, not just where it stands.

// LeaseStatus describes one outstanding lease file.
type LeaseStatus struct {
	// Hash is the spec hash the lease covers.
	Hash string
	// Owner/Host/PID identify the claimant as written into the lease
	// body ("?" when the body is unreadable — e.g. mid-write).
	Owner string
	Host  string
	PID   int
	// Mtime is the lease file's raw heartbeat mtime (zero when even the
	// stat failed — the lease is still listed, owner unknown).
	Mtime time.Time
	// Age is the time since the last heartbeat. Heartbeats are mtimes
	// stamped with the claimant's clock (os.Chtimes in Lease.Refresh),
	// so a snapshot measures age against the freshest heartbeat in the
	// directory — the claimants' own clock frame — never against the
	// observer's time.Now(), which on another host may run fast enough
	// to mislabel every healthy lease stale. The cost of the skew-proof
	// frame is resolution: a healthy fleet beats every TTL/4, so
	// snapshot ages read up to one heartbeat young, and a directory
	// whose claimants are all dead ages only across Watcher polls (the
	// watcher then measures growth on its own clock between polls,
	// which no cross-host skew can touch).
	Age time.Duration
}

// describe renders the lease for a status line: the owner tag, the
// claimant process behind it, and — when the watcher knows the TTL — a
// "stale?" flag once the heartbeat age passes 3/4 of it: the owner has
// missed at least two beats and is likely dead, worth an operator's
// look before the protocol reclaims the cell at the full TTL.
func (l LeaseStatus) describe(ttl time.Duration) string {
	who := l.Owner
	if l.Host != "?" && l.PID != 0 {
		proc := fmt.Sprintf("%s:%d", l.Host, l.PID)
		if proc != l.Owner { // default owners are already host:pid
			who = fmt.Sprintf("%s[%s]", l.Owner, proc)
		}
	}
	out := fmt.Sprintf("%s age=%s", who, l.Age.Round(time.Second))
	if ttl > 0 && l.Age > ttl*3/4 {
		out += " stale?"
	}
	return out
}

// CampaignStatus is a snapshot of a campaign over a shared cache
// directory: how much of the grid is settled and who is working on what.
type CampaignStatus struct {
	// Runs is the grid's total run count; Done counts runs whose cell
	// file exists.
	Runs int
	Done int
	// Leases are the outstanding lease files, sorted by descending age
	// (the stalest — likeliest dead — first).
	Leases []LeaseStatus
	// TTL is the lease staleness threshold the watcher assumes (0 =
	// unknown); it only drives the "stale?" rendering, never reclaim.
	TTL time.Duration
}

// String renders the snapshot as one line, the -watch output format.
func (s CampaignStatus) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d cells cached, %d leases outstanding", s.Done, s.Runs, len(s.Leases))
	const maxShown = 4
	for i, l := range s.Leases {
		if i == maxShown {
			fmt.Fprintf(&b, ", +%d more", len(s.Leases)-maxShown)
			break
		}
		sep := ", "
		if i == 0 {
			sep = ": "
		}
		b.WriteString(sep)
		b.WriteString(l.describe(s.TTL))
	}
	return b.String()
}

// DefaultRateWindow is the trailing span live watch rates are computed
// over. Long enough to smooth bursty fleets, short enough that a
// resumed campaign's rate reflects the current session, not the idle
// gap since the last one.
const DefaultRateWindow = 10 * time.Minute

// OwnerRate is one claimant's share of the journaled history.
type OwnerRate struct {
	// Owner is the claimant's owner tag.
	Owner string
	// Host and PID identify the claimant's most recent process.
	Host string
	PID  int
	// Done counts cells this claimant simulated (all-time); PerMin is
	// its simulation rate over the same trailing window as the fleet
	// rate, so the claimant lines and the fleet line of one dashboard
	// never tell different stories about a resumed campaign.
	Done   int
	PerMin float64
}

// JournalStatus summarizes the claimants' persisted event history plus
// the forward-looking estimate a watcher wants: how fast is the fleet
// retiring work, and when will the rest be done.
type JournalStatus struct {
	// Records is the number of journal records read; SkippedLines
	// counts unreadable lines (torn tails of SIGKILLed writers,
	// version skew) tolerated along the way.
	Records      int
	SkippedLines int
	// Claimants is the number of distinct owners seen; Owners carries
	// their per-claimant activity, sorted by owner tag.
	Claimants int
	Owners    []OwnerRate
	// CellsPerMin is the fleet-wide completion rate over the journal's
	// span (simulations plus first-time cached observations).
	CellsPerMin float64
	// CostPerSec is simulation cost retired per wall second — the
	// fleet's effective parallel speed, in (estimated) simulation
	// seconds per second.
	CostPerSec float64
	// Remaining counts grid runs not yet cached; RemainingEstSec sums
	// the cost model's estimates for them (EstKnown of Remaining had
	// an estimate).
	Remaining       int
	RemainingEstSec float64
	EstKnown        int
	// ETA is the projected time to finish the remaining runs: the
	// cost-model estimate divided by the observed CostPerSec, falling
	// back to Remaining/CellsPerMin when costs are unavailable. Valid
	// only when OK (a journal with no measurable span, or a fleet that
	// has retired nothing, projects nothing).
	ETA time.Duration
	OK  bool
}

// String renders the journal status as one stable, greppable line.
func (j JournalStatus) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rate=%.1f cells/min", j.CellsPerMin)
	if j.CostPerSec >= 0.005 { // below that it renders as a misleading 0.00x
		fmt.Fprintf(&b, " speed=%.2fx", j.CostPerSec)
	}
	eta := "unknown"
	if j.OK {
		eta = "~" + j.ETA.Round(time.Second).String()
	}
	if j.Remaining == 0 {
		eta = "0s"
	}
	fmt.Fprintf(&b, " eta=%s claimants=%d", eta, j.Claimants)
	if j.SkippedLines > 0 {
		fmt.Fprintf(&b, " journal_skipped_lines=%d", j.SkippedLines)
	}
	return b.String()
}

// OwnersLine renders the per-claimant rates ("" when no owner has
// simulated anything yet).
func (j JournalStatus) OwnersLine() string {
	parts := make([]string, 0, len(j.Owners))
	for _, o := range j.Owners {
		if o.Done == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s: %d done (%.1f/min)", o.Owner, o.Done, o.PerMin))
	}
	return strings.Join(parts, ", ")
}

// Watcher polls one grid's progress over a CellStore. The grid
// expansion and the per-spec canonicalization + SHA-256 are paid once at
// construction — a watcher polls for hours on paper-size campaigns, and
// the hashes never change between polls. Progress comes from the
// store's manifest snapshot, so an idle poll reads zero cell files
// (for a DirStore, one stat of manifest.jsonl; for an HTTP store, one
// rev-checked request). A Watcher is not safe for concurrent use: it
// memoizes per-poll state (the uncached set, the cost model) so the
// store's cost data is only re-folded when a new cell landed.
type Watcher struct {
	store CellStore
	cells []PlanCell
	// TTL, when set, is the lease staleness threshold used to flag
	// likely-dead claimants in rendered status lines.
	TTL time.Duration
	// RateWindow bounds the journal span the live rates (and the ETA
	// divisor) are computed over (0 = DefaultRateWindow): a resumed
	// campaign must report its current throughput, not the average
	// over days of idle gap in its history.
	RateWindow time.Duration

	// uncached is the most recent Status scan's missing-cell indexes
	// (nil until the first scan); model/modelDone memoize the cost
	// model against the done count that built it.
	uncached  []int
	scanned   bool
	model     *CostModel
	modelDone int
	// leaseObs tracks each lease's last distinct heartbeat mtime, so
	// Status can age an unmoving heartbeat on the watcher's own clock
	// across polls — immune to cross-host skew, because only local
	// durations and mtime *changes* are ever compared.
	leaseObs map[string]leaseObs
}

// leaseObs is the watcher's memory of one lease's heartbeat.
type leaseObs struct {
	mtime  time.Time     // last distinct heartbeat mtime observed
	seenAt time.Time     // watcher-clock instant that mtime appeared
	seed   time.Duration // snapshot age it carried at that instant
}

// NewWatcher expands the grid the way a Campaign does — every spec
// filled, validated and hashed once — over any CellStore.
func NewWatcher(s CellStore, g Grid) (*Watcher, error) {
	cells, err := expand(g, nil)
	if err != nil {
		return nil, err
	}
	return &Watcher{store: s, cells: cells}, nil
}

// Status snapshots the campaign: which runs are settled in the store
// and which leases are outstanding. Done counts cells by manifest
// membership (not full validation — this is observability, not
// resolution; a corrupt cell will be caught and re-simulated by
// whichever claimant next touches it), so a poll is grid-size map
// lookups against the store snapshot, no cell I/O.
func (w *Watcher) Status() (CampaignStatus, error) {
	st := CampaignStatus{Runs: len(w.cells), TTL: w.TTL}
	snap, err := w.store.Snapshot()
	if err != nil {
		return CampaignStatus{}, err
	}
	w.uncached = w.uncached[:0]
	for i, c := range w.cells {
		if _, ok := snap.Cells[c.Hash]; ok {
			st.Done++
		} else {
			w.uncached = append(w.uncached, i)
		}
	}
	w.scanned = true
	leases, err := w.store.LeaseStatuses()
	if err != nil {
		return CampaignStatus{}, err
	}
	// Layer observational aging over the snapshot: the snapshot measures
	// each lease against the freshest heartbeat in the directory (the
	// claimants' clock frame), and across polls the watcher adds the
	// local time for which that lease's mtime has not advanced. Both
	// terms are skew-free, so a dead claimant's lease ages at true rate
	// even when no peer heartbeats remain to anchor the snapshot frame.
	if w.leaseObs == nil {
		w.leaseObs = make(map[string]leaseObs)
	}
	now := time.Now()
	alive := make(map[string]bool, len(leases))
	for i := range leases {
		l := &leases[i]
		alive[l.Hash] = true
		if l.Mtime.IsZero() {
			continue // unreadable even to stat: age unknown
		}
		o, ok := w.leaseObs[l.Hash]
		if !ok || !o.mtime.Equal(l.Mtime) {
			o = leaseObs{mtime: l.Mtime, seenAt: now, seed: l.Age}
			w.leaseObs[l.Hash] = o
		}
		l.Age = o.seed + now.Sub(o.seenAt)
	}
	for h := range w.leaseObs {
		if !alive[h] {
			delete(w.leaseObs, h) // released: forget, the hash may be re-leased
		}
	}
	sort.Slice(leases, func(i, j int) bool {
		if leases[i].Age != leases[j].Age {
			return leases[i].Age > leases[j].Age
		}
		return leases[i].Hash < leases[j].Hash
	})
	st.Leases = leases
	return st, nil
}

// JournalStatus reads the campaign journal and projects rates and an
// ETA for the runs the grid still misses. A store without a journal
// (pre-journal campaigns, or a grid that never ran) returns nil with no
// error — the watcher simply has no history to show. The journal is
// tailed by the store, not re-read: a poll reads only what was appended
// since the previous one — zero bytes when nothing happened — instead
// of every claimant's full history every tick. The uncached set comes
// from the preceding Status scan (re-scanned here only if Status was
// never called), and the cost model is re-folded from the store's
// manifest only when a new cell has landed since it was last built:
// estimates change exactly when cells do.
func (w *Watcher) JournalStatus() (*JournalStatus, error) {
	recs, stats, err := w.store.PollJournal()
	if err != nil {
		return nil, err
	}
	if stats.Files == 0 {
		return nil, nil
	}
	tl := journal.Replay(recs)
	js := &JournalStatus{
		Records:      stats.Records,
		SkippedLines: stats.Skipped(),
		Claimants:    len(tl.Owners),
	}
	window := w.RateWindow
	if window <= 0 {
		window = DefaultRateWindow
	}
	now := float64(time.Now().UnixNano()) / 1e9
	cellsPerSec, costPerSec := tl.RatesWindow(now, window.Seconds())
	js.CellsPerMin = cellsPerSec * 60
	js.CostPerSec = costPerSec
	ownerRates := tl.OwnerRatesWindow(now, window.Seconds())
	for _, name := range tl.OwnerNames() {
		o := tl.Owners[name]
		js.Owners = append(js.Owners, OwnerRate{
			Owner: name, Host: o.Host, PID: o.PID,
			Done: o.Done, PerMin: ownerRates[name] * 60,
		})
	}

	// The remaining work, priced by the cost model over the cells the
	// grid still misses.
	if !w.scanned {
		if _, err := w.Status(); err != nil {
			return nil, err
		}
	}
	done := len(w.cells) - len(w.uncached)
	if w.model == nil || done != w.modelDone {
		model, err := LoadCostModel(w.store)
		if err != nil {
			return nil, err
		}
		w.model, w.modelDone = model, done
	}
	for _, i := range w.uncached {
		js.Remaining++
		if est, ok := w.model.Estimate(w.cells[i].Spec); ok {
			js.RemainingEstSec += est
			js.EstKnown++
		}
	}
	switch {
	case js.Remaining == 0:
		js.ETA, js.OK = 0, true
	case js.EstKnown == js.Remaining && js.CostPerSec > 0:
		js.ETA = time.Duration(js.RemainingEstSec / js.CostPerSec * float64(time.Second))
		js.OK = true
	case js.CellsPerMin > 0:
		// No full cost picture: project from the completion rate alone.
		js.ETA = time.Duration(float64(js.Remaining) / (js.CellsPerMin / 60) * float64(time.Second))
		js.OK = true
	}
	return js, nil
}

// LeaseStatuses lists every outstanding lease file with its owner and
// heartbeat age, sorted stalest-first. Diagnostics only: by the time the
// caller looks at one, it may already be released.
//
// A lease that exists but cannot be read — stat or read failure, a body
// torn mid-write, unparsable JSON — is still listed, as in-flight with
// an unknown owner: dropping it would understate the fleet, and the one
// lease a watcher most wants to see is exactly the one that is
// misbehaving. Only a lease that vanished between the directory scan
// and the stat (a release, the normal race) is skipped.
//
// Ages are measured against the freshest heartbeat mtime in the
// directory, not the local clock — see LeaseStatus.Age for the clock
// frame and its tolerance.
func (c *DirStore) LeaseStatuses() ([]LeaseStatus, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("exp: listing leases: %w", err)
	}
	var out []LeaseStatus
	var newest time.Time
	for _, e := range entries {
		name := e.Name()
		hash, ok := leaseHashFromName(name)
		if !ok {
			continue
		}
		ls := LeaseStatus{Hash: hash, Owner: "?", Host: "?"}
		path := filepath.Join(c.dir, name)
		if fi, err := os.Lstat(path); err == nil {
			ls.Mtime = fi.ModTime()
			if ls.Mtime.After(newest) {
				newest = ls.Mtime
			}
		} else if os.IsNotExist(err) {
			continue // released between ReadDir and Lstat
		}
		// Any other failure keeps the lease in the listing with "?"
		// fields: it exists, someone may hold it, report it.
		var info leaseInfo
		if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &info) == nil {
			ls.Owner, ls.Host, ls.PID = info.Owner, info.Host, info.PID
		} else if err != nil && os.IsNotExist(err) && !ls.Mtime.IsZero() {
			continue // released between Lstat and read
		}
		out = append(out, ls)
	}
	for i := range out {
		if !out[i].Mtime.IsZero() {
			out[i].Age = newest.Sub(out[i].Mtime)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Age != out[j].Age {
			return out[i].Age > out[j].Age
		}
		return out[i].Hash < out[j].Hash
	})
	return out, nil
}
