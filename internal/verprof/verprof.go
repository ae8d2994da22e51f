// Package verprof implements the versioning scheduler's profiling store:
// the TaskVersionSet structure of Table I. For every task type (a set of
// versions implementing the same task) the store keeps one group per
// distinct data-set size, and within each group, per version, the number
// of executions and their mean execution time. Groups pass from the
// initial learning phase to the reliable information phase once every
// version has run at least lambda times (Section IV-B).
//
// Two of the paper's future-work refinements (Section VII) are available
// as options, both off by default:
//
//   - SizeTolerance joins calls whose data-set sizes differ by at most a
//     relative tolerance into one group, instead of the paper's
//     exact-byte matching ("if the data needed by two calls varies from
//     only 1 byte, the scheduler will consider different groups");
//   - EWMAAlpha weights recent executions more than old ones instead of
//     the plain arithmetic mean.
package verprof

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// DefaultLambda is the default learning threshold: the minimum number of
// executions of every version of a size group before the group's
// information is considered reliable. Configurable by the user, as in
// the paper (footnote 4).
const DefaultLambda = 3

// VersionStats is the per-implementation record <VersionId, ExecTime,
// #Exec> of Table I, extended with a running dispersion measure.
type VersionStats struct {
	Version string
	MeanNs  float64
	Count   int64
	// VarNs2 is the running variance estimate in ns^2: Welford's sample
	// variance under the arithmetic mean, the exponentially weighted
	// variance under EWMA. It backs the optional confidence-based
	// reliability gate (Store.ConfidenceCV).
	VarNs2 float64
}

// Mean returns the mean execution time.
func (s VersionStats) Mean() time.Duration { return time.Duration(s.MeanNs) }

// Stddev returns the standard deviation of the recorded execution times
// (zero with fewer than two records).
func (s VersionStats) Stddev() time.Duration {
	if s.VarNs2 <= 0 {
		return 0
	}
	return time.Duration(math.Sqrt(s.VarNs2))
}

// CV returns the coefficient of variation (stddev / mean), the
// scale-free noisiness of the version's timings.
func (s VersionStats) CV() float64 {
	if s.MeanNs <= 0 {
		return 0
	}
	return math.Sqrt(math.Max(s.VarNs2, 0)) / s.MeanNs
}

// Group is one data-set-size group of a TaskVersionSet. Its per-version
// records live in a slice in registration order, found by a linear scan
// of the version names: a group holds one to three versions, and the
// scheduler consults it on every decision, so a scan beats hashing.
type Group struct {
	Size  int64
	store *Store
	stats []VersionStats // registration order
}

// Set is one TaskVersionSet: all profiling groups of one task type.
type Set struct {
	Type   string
	groups []*Group
}

// Store holds every TaskVersionSet. The zero value is not usable; call
// NewStore.
type Store struct {
	// Lambda is the learning threshold (>= 1).
	Lambda int
	// SizeTolerance is the relative tolerance for joining data-set sizes
	// into one group (0 = exact match, paper behaviour).
	SizeTolerance float64
	// EWMAAlpha, if > 0, makes Record update means as an exponentially
	// weighted moving average with that alpha (paper footnote 3 mentions
	// the idea as untried).
	EWMAAlpha float64
	// ConfidenceCV, if > 0, strengthens the reliability gate: besides the
	// lambda executions the paper requires, a group stays in the learning
	// phase until every version's coefficient of variation drops to this
	// bound — so noisy timings buy more samples before the scheduler
	// trusts them. To guarantee progress on inherently noisy versions the
	// gate caps at ConfidenceCap x lambda executions. An extension beyond
	// the paper; off by default.
	ConfidenceCV float64

	sets []*Set // creation order; Snapshot sorts by type name
}

// ConfidenceCap bounds how many extra samples the ConfidenceCV gate may
// demand, as a multiple of lambda.
const ConfidenceCap = 10

// NewStore returns a store with the given learning threshold; lambda < 1
// is clamped to DefaultLambda.
func NewStore(lambda int) *Store {
	if lambda < 1 {
		lambda = DefaultLambda
	}
	return &Store{Lambda: lambda}
}

// Set returns the TaskVersionSet for a task type, creating it on first
// use. Applications register a handful of task types, so a linear scan
// is cheaper than hashing the name on every scheduling decision.
func (s *Store) Set(taskType string) *Set {
	for _, set := range s.sets {
		if set.Type == taskType {
			return set
		}
	}
	set := &Set{Type: taskType}
	s.sets = append(s.sets, set)
	return set
}

// GroupFor returns the group matching the data-set size, creating one
// (with zeroed stats for the given versions) if no existing group
// matches. With SizeTolerance == 0 a group matches only on the exact
// size; otherwise sizes within the relative tolerance reuse the group.
func (s *Store) GroupFor(taskType string, size int64, versions []string) *Group {
	set := s.Set(taskType)
	for _, g := range set.groups {
		if s.sizeMatches(g.Size, size) {
			g.ensureVersions(versions)
			return g
		}
	}
	g := &Group{Size: size, store: s, stats: make([]VersionStats, 0, len(versions))}
	g.ensureVersions(versions)
	set.groups = append(set.groups, g)
	return g
}

func (s *Store) sizeMatches(groupSize, size int64) bool {
	if groupSize == size {
		return true
	}
	if s.SizeTolerance <= 0 {
		return false
	}
	diff := groupSize - size
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) <= s.SizeTolerance*float64(groupSize)
}

func (g *Group) ensureVersions(versions []string) {
	for _, v := range versions {
		g.stat(v)
	}
}

// find returns the version's record, or nil if it was never registered.
func (g *Group) find(version string) *VersionStats {
	for i := range g.stats {
		if g.stats[i].Version == version {
			return &g.stats[i]
		}
	}
	return nil
}

// stat returns the version's record, registering it (zeroed) on first
// use.
func (g *Group) stat(version string) *VersionStats {
	if st := g.find(version); st != nil {
		return st
	}
	g.stats = append(g.stats, VersionStats{Version: version})
	return &g.stats[len(g.stats)-1]
}

// Record folds one realized execution time into the version's mean. The
// scheduler records in both phases: "the scheduler is always learning"
// (Section IV-B).
func (g *Group) Record(version string, d time.Duration) {
	st := g.stat(version)
	st.Count++
	x := float64(d.Nanoseconds())
	switch {
	case st.Count == 1:
		st.MeanNs = x
		st.VarNs2 = 0
	case g.store != nil && g.store.EWMAAlpha > 0:
		a := g.store.EWMAAlpha
		diff := x - st.MeanNs
		st.MeanNs = a*x + (1-a)*st.MeanNs
		st.VarNs2 = (1 - a) * (st.VarNs2 + a*diff*diff)
	default:
		// Welford: unbiased running sample variance.
		delta := x - st.MeanNs
		st.MeanNs += delta / float64(st.Count)
		st.VarNs2 += (delta*(x-st.MeanNs) - st.VarNs2) / float64(st.Count-1)
	}
}

// Seed pre-loads a version's statistics (external hints, Section VII).
func (g *Group) Seed(version string, mean time.Duration, count int64) {
	g.SeedWithVariance(version, mean, count, 0)
}

// SeedWithVariance is Seed with an explicit variance estimate (ns^2), so
// hint files can also warm-start the confidence-gated reliability check.
func (g *Group) SeedWithVariance(version string, mean time.Duration, count int64, varNs2 float64) {
	if count < 0 {
		panic("verprof: negative seed count")
	}
	if varNs2 < 0 {
		panic("verprof: negative seed variance")
	}
	st := g.stat(version)
	st.MeanNs = float64(mean.Nanoseconds())
	st.Count = count
	st.VarNs2 = varNs2
}

// Mean returns the version's mean execution time; ok is false while the
// version has never run.
func (g *Group) Mean(version string) (time.Duration, bool) {
	st := g.find(version)
	if st == nil || st.Count == 0 {
		return 0, false
	}
	return st.Mean(), true
}

// Count returns the version's execution count.
func (g *Group) Count(version string) int64 {
	if st := g.find(version); st != nil {
		return st.Count
	}
	return 0
}

// Reliable reports whether every registered version has run at least
// lambda times: the group has left the initial learning phase. With the
// ConfidenceCV extension enabled, versions whose timing scatter is still
// above the bound hold the group in the learning phase for up to
// ConfidenceCap x lambda executions.
func (g *Group) Reliable() bool {
	lambda := DefaultLambda
	confidence := 0.0
	if g.store != nil {
		lambda = g.store.Lambda
		confidence = g.store.ConfidenceCV
	}
	for i := range g.stats {
		st := &g.stats[i]
		if st.Count < int64(lambda) {
			return false
		}
		if confidence > 0 && st.Count < int64(ConfidenceCap*lambda) && st.CV() > confidence {
			return false
		}
	}
	return len(g.stats) > 0
}

// Versions returns the registered version names in registration order.
func (g *Group) Versions() []string {
	out := make([]string, len(g.stats))
	for i, st := range g.stats {
		out[i] = st.Version
	}
	return out
}

// Stats returns a copy of the version's statistics.
func (g *Group) Stats(version string) VersionStats {
	if st := g.find(version); st != nil {
		return *st
	}
	return VersionStats{Version: version}
}

// --- snapshotting (Table I rendering and XML hints) ---

// GroupSnapshot is an exportable view of one size group.
type GroupSnapshot struct {
	Size     int64
	Versions []VersionStats
}

// SetSnapshot is an exportable view of one TaskVersionSet.
type SetSnapshot struct {
	Type   string
	Groups []GroupSnapshot
}

// Snapshot exports the whole store, sorted by type name and group size,
// versions in registration order — the layout of Table I.
func (s *Store) Snapshot() []SetSnapshot {
	var out []SetSnapshot
	sets := append([]*Set(nil), s.sets...)
	sort.Slice(sets, func(i, j int) bool { return sets[i].Type < sets[j].Type })
	for _, set := range sets {
		ss := SetSnapshot{Type: set.Type}
		groups := append([]*Group(nil), set.groups...)
		sort.Slice(groups, func(i, j int) bool { return groups[i].Size < groups[j].Size })
		for _, g := range groups {
			gs := GroupSnapshot{Size: g.Size}
			gs.Versions = append(gs.Versions, g.stats...)
			ss.Groups = append(ss.Groups, gs)
		}
		out = append(out, ss)
	}
	return out
}

// FormatTable renders the snapshot in the shape of the paper's Table I.
func FormatTable(snap []SetSnapshot) string {
	out := "TaskVersionSet | DataSetSize | <VersionId, ExecTime, #Exec>\n"
	for _, set := range snap {
		for gi, g := range set.Groups {
			for vi, v := range g.Versions {
				name := ""
				if gi == 0 && vi == 0 {
					name = set.Type
				}
				size := ""
				if vi == 0 {
					size = formatBytes(g.Size)
				}
				out += fmt.Sprintf("%-14s | %-11s | <%s, %v, %d>\n", name, size, v.Version, v.Mean().Round(10*time.Microsecond), v.Count)
			}
		}
	}
	return out
}

func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
