package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"unicode/utf8"
)

// SpecHashVersion is the format version of the canonical spec
// serialization below. Bump it whenever the serialization (or the
// meaning of any serialized field) changes: the version is part of the
// hashed bytes, so a bump invalidates every previously cached result at
// once instead of silently aliasing old cells onto new semantics.
//
// v2: string fields are quoted (injective serialization — a field value
// can no longer fake a `key=value` line), and the CacheFormatVersion and
// SimBehaviorVersion fingerprints are folded in.
//
// v3: the chaos fault-injection axis (RunSpec.Chaos) joins the
// canonical serialization. Even empty-chaos cells hash differently from
// v2 — deliberate, per the bump policy: shared caches are orphaned
// wholesale rather than risking a v2 cell aliasing onto a run whose
// semantics now include the (empty) chaos axis.
const SpecHashVersion = 3

// SimBehaviorVersion is the frozen simulator-behaviour fingerprint.
// The spec hash identifies a *simulation outcome*, not just its inputs,
// so shared caches (which outlive any one build — multi-process and
// multi-host campaigns hand results across machines) must be invalidated
// when the simulator itself changes. Bump this constant in the same
// change as any edit that alters simulated results for an existing spec:
// engine or scheduler behaviour, the memory/transfer model, performance
// or noise models, or an application's task graph. Purely additive
// changes (new apps, new schedulers, new grid axes with hash-neutral
// defaults) must NOT bump it. The bump policy is documented in
// internal/exp/README.md; the golden tests in spechash_test.go make
// every bump (accidental or deliberate) visible in review.
const SimBehaviorVersion = 1

// CanonicalString renders every determinism-relevant axis of the spec in
// a fixed key=value layout, defaults filled in, strings quoted, floats
// in Go's shortest round-trippable form. The header also pins the three
// compatibility fingerprints (serialization, cell-file format, simulator
// behaviour), so a cache directory shared between processes or hosts can
// never serve a result produced under different semantics. Two specs
// describe the same simulation under the same model if and only if their
// canonical strings are equal; the golden tests in spechash_test.go
// freeze this format and FuzzCanonicalSpec checks injectivity.
func (s RunSpec) CanonicalString() string { return string(s.appendCanonical(nil)) }

// appendCanonical appends the canonical string to b, so Hash can build
// it in one stack buffer.
func (s RunSpec) appendCanonical(b []byte) []byte {
	s.fillDefaults()
	line := func(key string) { b = append(append(b, key...), '=') }
	end := func() { b = append(b, '\n') }
	quoted := func(key, v string) { line(key); b = strconv.AppendQuote(b, coerceUTF8(v)); end() }
	integer := func(key string, v int64) { line(key); b = strconv.AppendInt(b, v, 10); end() }
	float := func(key string, v float64) { line(key); b = strconv.AppendFloat(b, v, 'g', -1, 64); end() }
	b = append(b, "spechash/v"...)
	b = strconv.AppendInt(b, SpecHashVersion, 10)
	end()
	integer("format", CacheFormatVersion)
	integer("model", SimBehaviorVersion)
	quoted("app", s.App)
	quoted("size", string(s.Size))
	quoted("scheduler", s.Scheduler)
	quoted("machine", string(s.Machine))
	integer("smp", int64(s.SMPWorkers))
	integer("gpus", int64(s.GPUs))
	integer("lambda", int64(s.Lambda))
	float("size_tolerance", s.SizeTolerance)
	float("ewma_alpha", s.EWMAAlpha)
	line("locality_aware")
	b = strconv.AppendBool(b, s.LocalityAware)
	end()
	quoted("chaos", s.Chaos)
	float("noise", s.NoiseSigma)
	integer("seed", s.Seed)
	return b
}

// coerceUTF8 rewrites each invalid UTF-8 byte to U+FFFD, byte for byte —
// exactly the substitution encoding/json applies when marshaling a
// string. Stored cells keep their spec as JSON, so without this a spec
// holding invalid bytes would hash differently after rehydration in
// another process and its stored cell would self-invalidate forever
// (found by FuzzCanonicalSpec; such strings never pass Grid.Validate,
// but the hash must be total anyway).
func coerceUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
			i++
			continue
		}
		b.WriteString(s[i : i+size])
		i += size
	}
	return b.String()
}

// Hash is the content address of the spec: the SHA-256 of its canonical
// string, in lowercase hex. Equal specs (after default filling) hash
// equal; any change to any simulated-behaviour axis — or to the
// simulator-behaviour fingerprint — changes the hash. The result cache
// files and their lease files are named by this hash.
func (s RunSpec) Hash() string {
	var buf [320]byte
	sum := sha256.Sum256(s.appendCanonical(buf[:0]))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}
