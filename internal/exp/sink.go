package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/safefile"
	"repro/internal/trace"
)

// ArtifactSink receives each freshly simulated run's tracer, letting a
// campaign emit per-cell artifacts (Paraver traces, timelines, custom
// exports) as a side product of the sweep. The engine serializes Consume
// calls, so implementations need no locking.
//
// Sinks only see simulations: a cell satisfied from the cache is not
// re-simulated, so there is no tracer to hand over and the sink is
// skipped. To re-export artifacts for cached cells, run the campaign
// against a fresh cache directory (or none).
type ArtifactSink interface {
	Consume(rr RunResult, tr *trace.Tracer) error
}

// TraceDirSink writes one Paraver trace pair (<slug>.prv + <slug>.pcf)
// per simulated run into a directory — the ompss-sweep -trace-dir mode.
// File names are deterministic per spec (human-readable axes plus a spec
// hash prefix for the axes the slug elides), so concurrent claimants
// that pathologically simulate the same cell twice overwrite each other
// with byte-identical artifacts instead of colliding.
type TraceDirSink struct {
	dir string
}

// NewTraceDirSink creates (if needed) the artifact directory.
func NewTraceDirSink(dir string) (*TraceDirSink, error) {
	if dir == "" {
		return nil, fmt.Errorf("exp: trace directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: opening trace directory: %w", err)
	}
	return &TraceDirSink{dir: dir}, nil
}

// Dir returns the sink's directory.
func (s *TraceDirSink) Dir() string { return s.dir }

// Consume implements ArtifactSink.
func (s *TraceDirSink) Consume(rr RunResult, tr *trace.Tracer) error {
	slug := artifactSlug(rr.Spec)
	prv := filepath.Join(s.dir, slug+".prv")
	pcf := filepath.Join(s.dir, slug+".pcf")
	nWorkers := rr.Spec.SMPWorkers + rr.Spec.GPUs
	if err := writeArtifact(prv, func(w io.Writer) error {
		return tr.WriteParaver(w, nWorkers)
	}); err != nil {
		return err
	}
	return writeArtifact(pcf, tr.WriteParaverPCF)
}

// ChromeTraceSink writes one Chrome trace-event file
// (<slug>.trace.json, loadable in chrome://tracing or Perfetto) per
// simulated run into a directory — the ompss-sweep -chrome-trace-dir
// mode. It shares TraceDirSink's contract end to end: deterministic
// per-spec file names, atomic writes, and cached hits emit nothing
// (no simulation, no tracer — re-export against a fresh cache).
type ChromeTraceSink struct {
	dir string
}

// NewChromeTraceSink creates (if needed) the artifact directory.
func NewChromeTraceSink(dir string) (*ChromeTraceSink, error) {
	if dir == "" {
		return nil, fmt.Errorf("exp: chrome trace directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: opening chrome trace directory: %w", err)
	}
	return &ChromeTraceSink{dir: dir}, nil
}

// Dir returns the sink's directory.
func (s *ChromeTraceSink) Dir() string { return s.dir }

// Consume implements ArtifactSink.
func (s *ChromeTraceSink) Consume(rr RunResult, tr *trace.Tracer) error {
	path := filepath.Join(s.dir, artifactSlug(rr.Spec)+".trace.json")
	return writeArtifact(path, tr.WriteChromeTrace)
}

// MultiSink fans each simulated run's tracer out to several sinks, in
// order (e.g. Paraver and Chrome trace exports from one campaign). A
// nil entry is skipped; the first sink error stops the fan-out and
// fails the campaign, like any sink error. With no sinks left it
// returns nil (no sink), and with one it returns that sink itself.
func MultiSink(sinks ...ArtifactSink) ArtifactSink {
	compact := make([]ArtifactSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			compact = append(compact, s)
		}
	}
	switch len(compact) {
	case 0:
		return nil
	case 1:
		return compact[0]
	}
	return multiSink(compact)
}

type multiSink []ArtifactSink

// Consume implements ArtifactSink.
func (m multiSink) Consume(rr RunResult, tr *trace.Tracer) error {
	for _, s := range m {
		if err := s.Consume(rr, tr); err != nil {
			return err
		}
	}
	return nil
}

// writeArtifact writes atomically (safefile.Write, as
// DirStore.StoreCell does): two processes that simulate the same cell
// after a pathological lease reclaim then race byte-identical renames,
// never interleave truncate-and-write on one path.
func writeArtifact(path string, write func(io.Writer) error) error {
	if err := safefile.Write(path, false, write); err != nil {
		return fmt.Errorf("exp: writing trace artifact %s: %w", path, err)
	}
	return nil
}

// artifactSlug names a run's artifacts: the axes a human greps for in
// clear text, everything else (machine shape, extension knobs) folded
// into a 12-hex spec-hash prefix that keeps distinct cells distinct.
func artifactSlug(spec RunSpec) string {
	slug := fmt.Sprintf("%s_%s_%s_smp%d_gpu%d_n%s_s%d_%s",
		spec.App, spec.Size, spec.Scheduler, spec.SMPWorkers, spec.GPUs,
		ftoa(spec.NoiseSigma), spec.Seed, spec.Hash()[:12])
	return safefile.Name(slug)
}
