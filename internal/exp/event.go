package exp

// Campaign events: the typed notification stream a Campaign emits while
// it resolves a grid. Observers drive progress rendering, the ompss-sweep
// -watch mode's local twin, and tests of the engine's lifecycle
// guarantees; they never influence results.
//
// Delivery contract (asserted by TestCampaignObserverSemantics under
// -race):
//
//   - Events are delivered one at a time, in a serialized stream: an
//     observer needs no locking of its own.
//   - Per cell, CellStarted (when present) precedes the completion
//     event, and exactly one of CellDone or CellCached is delivered.
//     Cells satisfied straight from the cache complete without a
//     CellStarted.
//   - Events from different cells interleave freely at Parallel > 1;
//     only the per-cell ordering above is guaranteed.
//   - A cell whose run fails delivers no completion event: the campaign
//     aborts with the error instead.
//   - A freshly simulated cell whose chaos plan actually fired (faults
//     injected > 0) delivers one CellFaultInjected immediately before its
//     CellDone. Cache hits never deliver it — the faults happened in
//     whichever campaign simulated the cell.
//   - A budgeted campaign delivers CellSkipped (in expansion-index
//     order, before any execution) for every cell it prices out; a
//     skipped cell gets no other event from this campaign.

// Event is a campaign notification. The concrete types below are the
// complete set; the unexported marker keeps it closed.
type Event interface{ campaignEvent() }

// CellStarted reports that a worker began resolving a cell that was not
// already cached: a simulation is about to run (or, in claim mode, a
// final cache re-check under the held lease may still turn it into a
// CellCached).
type CellStarted struct {
	// Index is the cell's position in the campaign's expansion order.
	Index int
	Spec  RunSpec
	// Hash is the spec's content hash.
	Hash string
}

// CellDone reports a freshly simulated (and, with a cache, persisted)
// cell.
type CellDone struct {
	Index  int
	Result RunResult
	// Hash is the spec's content hash, carried so observers that
	// persist events (the campaign journal) need not re-hash the spec.
	Hash string
}

// CellFaultInjected reports that a freshly simulated cell's chaos plan
// fired: at least one fault event (dropout, recovery, throttle step,
// straggler, blackout edge) was injected into the run. Delivered
// immediately before the cell's CellDone, so persistent observers (the
// campaign journal) can record the fault forensics next to the result.
type CellFaultInjected struct {
	Index int
	// Hash is the spec's content hash.
	Hash string
	// Chaos is the cell's chaos spec as swept (the compact grammar form).
	Chaos string
	// Faults counts the injected fault events; Requeued the tasks the
	// faults forced the runtime to fail and re-queue.
	Faults   int64
	Requeued int64
}

// CellCached reports a cell satisfied from the campaign cache — stored
// by an earlier campaign, a peer claimant, or this process.
type CellCached struct {
	Index  int
	Result RunResult
	// Hash is the spec's content hash.
	Hash string
	// Warm marks a pre-scan hit: the cell was already complete on disk
	// before this campaign started, as opposed to one a peer stored
	// while it ran. Persistent observers (the campaign journal) skip
	// warm hits — they carry no new history, and re-rendering a warm
	// cache must not append the whole grid to the journal every time.
	Warm bool
}

// CellSkipped reports a cell a budgeted campaign priced out: claiming
// it would push the estimated spend past the budget (see
// BudgetOptions). The cell is left uncached for a later resume; skips
// are delivered in expansion-index order before execution begins.
type CellSkipped struct {
	Index int
	Spec  RunSpec
	Hash  string
	// EstSec is the cost model's estimate for the cell in seconds
	// (0 with Known false when the model had no estimate).
	EstSec float64
	Known  bool
}

// LeaseClaimed reports that this claimant won a cell's lease (claim mode
// only). The cell's CellStarted follows once a worker slot picks it up.
type LeaseClaimed struct {
	Index int
	Hash  string
	// Owner is this claimant's owner tag, as written into the lease file.
	Owner string
}

// LeaseReclaimed reports that this claimant broke a stale peer lease
// (claim mode only). Whoever wins the re-acquisition race emits its own
// LeaseClaimed afterwards.
type LeaseReclaimed struct {
	Hash string
	// By is the owner tag of the claimant that broke the lease.
	By string
}

func (CellStarted) campaignEvent()       {}
func (CellDone) campaignEvent()          {}
func (CellFaultInjected) campaignEvent() {}
func (CellCached) campaignEvent()        {}
func (CellSkipped) campaignEvent()       {}
func (LeaseClaimed) campaignEvent()      {}
func (LeaseReclaimed) campaignEvent()    {}

// Observer consumes campaign events. Implementations can rely on the
// delivery contract at the top of this file.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(ev Event) { f(ev) }

// MultiObserver fans one event stream out to several observers, in
// order. A nil entry is skipped.
func MultiObserver(obs ...Observer) Observer {
	compact := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			compact = append(compact, o)
		}
	}
	return ObserverFunc(func(ev Event) {
		for _, o := range compact {
			o.OnEvent(ev)
		}
	})
}
