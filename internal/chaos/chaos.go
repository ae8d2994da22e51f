// Package chaos is the deterministic fault/dynamics injection
// subsystem: adversarial machine dynamics (GPU dropout, thermal
// throttling, stragglers, blackouts) expressed as a schedule of typed
// events over *virtual* time and injected through the internal/sim
// event loop into the runtime. There is no wall clock and no RNG
// anywhere in the package: a chaos plan is a pure function of its spec
// string, so a faulted run replays byte-identically from (spec, seed,
// chaos) — which is what lets chaos specs ride the campaign cache,
// lease and journal stack unchanged.
//
// Plans compile from a compact spec string:
//
//	spec    := clause (';' clause)*
//	clause  := target ':' fault
//	target  := "all" | kind index        e.g. gpu1, gpu-1, core0, cpu2
//	kind    := "gpu" | "core" | "smp" | "cpu"   (the last three alias SMP)
//	fault   := "drop@" point ["+recover@" point]
//	         | "throttle" ("@" point "x" factor)+
//	         | "stragglex" factor
//	         | "blackout@" point "+" duration    (target must be "all")
//	point   := percent | duration        e.g. "40%", "1.5s", "250ms"
//	factor  := positive float            speed multiplier: 0.5 = half speed
//
// Percent points are relative to a horizon — the makespan of the same
// cell run without chaos — which the caller measures with a baseline
// run and passes to Arm. Absolute points need no horizon. Device
// indices name the i-th worker of that kind in worker-ID order; a
// clause whose device does not exist on the machine is inert, so one
// chaos axis can cross a grid whose GPU counts vary. Inert clauses cost
// no baseline run either: NeedsHorizonOn asks for the horizon only when
// a percent point acts on the runtime being armed.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/machine"
	"repro/internal/rt"
)

// Point is one instant in a chaos schedule: an absolute virtual-time
// offset, or a percentage of the horizon (the no-chaos makespan).
type Point struct {
	Dur   time.Duration // used when !IsPct
	Pct   float64       // used when IsPct; 40 means 40%
	IsPct bool
}

// String renders the point in spec syntax.
func (p Point) String() string {
	if p.IsPct {
		return strconv.FormatFloat(p.Pct, 'g', -1, 64) + "%"
	}
	return p.Dur.String()
}

// resolve converts the point to a virtual-time offset.
func (p Point) resolve(horizon time.Duration) time.Duration {
	if p.IsPct {
		return time.Duration(float64(horizon) * p.Pct / 100)
	}
	return p.Dur
}

// GPUDropout removes a device at At; if Recover is non-nil the device
// is re-admitted then. The in-flight task fails and re-queues; the
// versioning scheduler treats the device as dead and re-adapts.
// Despite the name it applies to any device kind the target selects.
type GPUDropout struct {
	At      Point
	Device  string
	Recover *Point
}

// ThrottleStep is one knee of a throttle curve: from At on, the device
// runs at Factor of nominal speed.
type ThrottleStep struct {
	At     Point
	Factor float64
}

// Throttle scales a device's speed through a piecewise curve (thermal
// throttling). At is the first step's point; Curve holds every step in
// spec order.
type Throttle struct {
	At     Point
	Device string
	Curve  []ThrottleStep
}

// Straggler runs a device at Factor of nominal speed for the whole run
// (a chronically slow node).
type Straggler struct {
	Device string
	Factor float64
}

// Blackout drops every worker at At and re-admits them all at At+Dur.
type Blackout struct {
	At  Point
	Dur time.Duration
}

// Plan is a compiled chaos spec: a deterministic schedule of typed
// fault events.
type Plan struct {
	Spec       string
	Dropouts   []GPUDropout
	Throttles  []Throttle
	Stragglers []Straggler
	Blackouts  []Blackout
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool {
	return p == nil ||
		len(p.Dropouts) == 0 && len(p.Throttles) == 0 &&
			len(p.Stragglers) == 0 && len(p.Blackouts) == 0
}

// NeedsHorizon reports whether any point is percent-relative, in which
// case Arm requires the no-chaos baseline makespan.
func (p *Plan) NeedsHorizon() bool {
	if p == nil {
		return false
	}
	for _, d := range p.Dropouts {
		if d.At.IsPct || d.Recover != nil && d.Recover.IsPct {
			return true
		}
	}
	for _, th := range p.Throttles {
		for _, s := range th.Curve {
			if s.At.IsPct {
				return true
			}
		}
	}
	for _, b := range p.Blackouts {
		if b.At.IsPct {
			return true
		}
	}
	return false
}

// NeedsHorizonOn reports whether arming the plan on r needs the horizon:
// some percent point belongs to a clause that acts on one of r's
// workers, or to an inert dropout that mixes a percent and an absolute
// point (Arm checks such a dropout's recover-after-drop order on
// resolved times). A plan whose percent points all target devices r
// lacks arms without a baseline run.
func (p *Plan) NeedsHorizonOn(r *rt.Runtime) bool {
	if p == nil {
		return false
	}
	for _, d := range p.Dropouts {
		if !d.At.IsPct && (d.Recover == nil || !d.Recover.IsPct) {
			continue
		}
		mixed := d.Recover != nil && d.Recover.IsPct != d.At.IsPct
		if mixed || len(workerIDs(r, d.Device)) > 0 {
			return true
		}
	}
	for _, th := range p.Throttles {
		if len(workerIDs(r, th.Device)) == 0 {
			continue
		}
		for _, s := range th.Curve {
			if s.At.IsPct {
				return true
			}
		}
	}
	for _, b := range p.Blackouts {
		if b.At.IsPct {
			return true // "all" always selects a worker
		}
	}
	return false
}

// String renders the plan back to canonical spec syntax (clauses in
// Dropouts, Throttles, Stragglers, Blackouts order).
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	var cl []string
	for _, d := range p.Dropouts {
		c := fmt.Sprintf("%s:drop@%s", d.Device, d.At)
		if d.Recover != nil {
			c += "+recover@" + d.Recover.String()
		}
		cl = append(cl, c)
	}
	for _, th := range p.Throttles {
		var b strings.Builder
		b.WriteString(th.Device + ":throttle")
		for _, s := range th.Curve {
			fmt.Fprintf(&b, "@%sx%s", s.At, strconv.FormatFloat(s.Factor, 'g', -1, 64))
		}
		cl = append(cl, b.String())
	}
	for _, s := range p.Stragglers {
		cl = append(cl, fmt.Sprintf("%s:stragglex%s", s.Device, strconv.FormatFloat(s.Factor, 'g', -1, 64)))
	}
	for _, b := range p.Blackouts {
		cl = append(cl, fmt.Sprintf("all:blackout@%s+%s", b.At, b.Dur))
	}
	return strings.Join(cl, ";")
}

// Parse compiles a spec string. The empty string and "none" compile to
// an empty plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{Spec: spec}
	s := strings.TrimSpace(spec)
	if s == "" || s == "none" {
		return p, nil
	}
	for _, raw := range strings.Split(s, ";") {
		clause := strings.TrimSpace(raw)
		if clause == "" {
			continue
		}
		target, fault, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("chaos: clause %q: want target:fault", clause)
		}
		target = strings.TrimSpace(target)
		fault = strings.TrimSpace(fault)
		if _, err := parseTarget(target); err != nil {
			return nil, fmt.Errorf("chaos: clause %q: %v", clause, err)
		}
		if err := p.parseFault(target, fault); err != nil {
			return nil, fmt.Errorf("chaos: clause %q: %v", clause, err)
		}
	}
	return p, nil
}

func (p *Plan) parseFault(target, fault string) error {
	switch {
	case strings.HasPrefix(fault, "drop@"):
		rest := fault[len("drop@"):]
		atStr, recStr, hasRec := strings.Cut(rest, "+")
		at, err := parsePoint(atStr)
		if err != nil {
			return err
		}
		d := GPUDropout{At: at, Device: target}
		if hasRec {
			rp, ok := strings.CutPrefix(recStr, "recover@")
			if !ok {
				return fmt.Errorf("want +recover@<point>, got %q", recStr)
			}
			rec, err := parsePoint(rp)
			if err != nil {
				return err
			}
			d.Recover = &rec
		}
		p.Dropouts = append(p.Dropouts, d)
		return nil

	case strings.HasPrefix(fault, "throttle@"):
		th := Throttle{Device: target}
		for _, step := range strings.Split(fault[len("throttle@"):], "@") {
			atStr, facStr, ok := strings.Cut(step, "x")
			if !ok {
				return fmt.Errorf("throttle step %q: want <point>x<factor>", step)
			}
			at, err := parsePoint(atStr)
			if err != nil {
				return err
			}
			fac, err := parseFactor(facStr)
			if err != nil {
				return err
			}
			th.Curve = append(th.Curve, ThrottleStep{At: at, Factor: fac})
		}
		th.At = th.Curve[0].At
		p.Throttles = append(p.Throttles, th)
		return nil

	case strings.HasPrefix(fault, "stragglex"):
		fac, err := parseFactor(fault[len("stragglex"):])
		if err != nil {
			return err
		}
		p.Stragglers = append(p.Stragglers, Straggler{Device: target, Factor: fac})
		return nil

	case strings.HasPrefix(fault, "blackout@"):
		if target != "all" {
			return fmt.Errorf("blackout target must be \"all\", got %q", target)
		}
		atStr, durStr, ok := strings.Cut(fault[len("blackout@"):], "+")
		if !ok {
			return fmt.Errorf("want blackout@<point>+<duration>")
		}
		at, err := parsePoint(atStr)
		if err != nil {
			return err
		}
		dur, err := time.ParseDuration(durStr)
		if err != nil || dur <= 0 {
			return fmt.Errorf("bad blackout duration %q", durStr)
		}
		p.Blackouts = append(p.Blackouts, Blackout{At: at, Dur: dur})
		return nil
	}
	return fmt.Errorf("unknown fault %q (want drop@, throttle@, stragglex, blackout@)", fault)
}

// parsePoint parses "40%" or a Go duration like "1.5s".
func parsePoint(s string) (Point, error) {
	s = strings.TrimSpace(s)
	if pct, ok := strings.CutSuffix(s, "%"); ok {
		v, err := strconv.ParseFloat(pct, 64)
		if err != nil || v < 0 {
			return Point{}, fmt.Errorf("bad percent point %q", s)
		}
		return Point{Pct: v, IsPct: true}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return Point{}, fmt.Errorf("bad point %q (want \"40%%\" or a duration like \"1.5s\")", s)
	}
	return Point{Dur: d}, nil
}

func parseFactor(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad speed factor %q (want a positive float)", s)
	}
	return v, nil
}

// target selects workers: a device kind plus index, or every worker.
type target struct {
	all  bool
	kind machine.DeviceKind
	idx  int
}

// parseTarget accepts "all", "gpuN"/"gpu-N" (CUDA devices) and
// "coreN"/"smpN"/"cpuN" (SMP cores), index in worker-ID order.
func parseTarget(s string) (target, error) {
	if s == "all" {
		return target{all: true}, nil
	}
	for _, pfx := range [...]struct {
		name string
		kind machine.DeviceKind
	}{
		{"gpu", machine.KindCUDA},
		{"core", machine.KindSMP},
		{"smp", machine.KindSMP},
		{"cpu", machine.KindSMP},
	} {
		num, ok := strings.CutPrefix(s, pfx.name)
		if !ok {
			continue
		}
		num = strings.TrimPrefix(num, "-")
		idx, err := strconv.Atoi(num)
		if err != nil || idx < 0 {
			return target{}, fmt.Errorf("bad device index in %q", s)
		}
		return target{kind: pfx.kind, idx: idx}, nil
	}
	return target{}, fmt.Errorf("bad target %q (want all, gpuN, coreN, smpN or cpuN)", s)
}

// workerIDs resolves a (pre-validated) target against a runtime. A
// kind+index target with no such device resolves to nothing: the
// clause is inert on this machine shape.
func workerIDs(r *rt.Runtime, sel string) []int {
	t, err := parseTarget(sel)
	if err != nil {
		panic("chaos: unvalidated target " + sel) // Parse rejected it already
	}
	var ids []int
	nth := 0
	for _, w := range r.Workers() {
		if t.all {
			ids = append(ids, w.ID())
			continue
		}
		if w.Kind() != t.kind {
			continue
		}
		if nth == t.idx {
			return []int{w.ID()}
		}
		nth++
	}
	if t.all {
		return ids
	}
	return nil
}

// Arm schedules the plan's events on the runtime's virtual clock. For
// percent points, horizon is the no-chaos baseline makespan (required
// iff NeedsHorizonOn(r)). Events at equal times apply in Dropouts,
// Throttles, Stragglers, Blackouts order, each slice in spec order —
// fixed, so arming is deterministic. Call once, before Runtime.Run.
func (p *Plan) Arm(r *rt.Runtime, horizon time.Duration) error {
	if p.Empty() {
		return nil
	}
	if p.NeedsHorizonOn(r) && horizon <= 0 {
		return fmt.Errorf("chaos: plan %q has percent points but no horizon", p.Spec)
	}
	eng := r.Engine()
	at := func(pt Point) time.Duration { return pt.resolve(horizon) }

	for _, d := range p.Dropouts {
		ids := workerIDs(r, d.Device)
		drop := at(d.At)
		var rec time.Duration
		if d.Recover != nil {
			rec = at(*d.Recover)
			// Pure-percent dropouts compare their percentages: an inert
			// one is armed without a horizon, where both resolve to 0.
			late := rec > drop
			if d.At.IsPct && d.Recover.IsPct {
				late = d.Recover.Pct > d.At.Pct
			}
			if !late {
				return fmt.Errorf("chaos: %s: recover at %v not after drop at %v", d.Device, d.Recover, d.At)
			}
		}
		for _, id := range ids {
			id := id
			eng.At(eng.Now().Add(drop), func() { r.DropWorker(id); r.NoteFault() })
			if d.Recover != nil {
				eng.At(eng.Now().Add(rec), func() { r.RecoverWorker(id); r.NoteFault() })
			}
		}
	}
	for _, th := range p.Throttles {
		ids := workerIDs(r, th.Device)
		for _, step := range th.Curve {
			when := at(step.At)
			f := step.Factor
			for _, id := range ids {
				id := id
				eng.At(eng.Now().Add(when), func() { r.SetWorkerSpeed(id, f); r.NoteFault() })
			}
		}
	}
	for _, s := range p.Stragglers {
		// A straggler is slow from the first instant: apply at arm time.
		for _, id := range workerIDs(r, s.Device) {
			r.SetWorkerSpeed(id, s.Factor)
			r.NoteFault()
		}
	}
	for _, b := range p.Blackouts {
		start := at(b.At)
		end := start + b.Dur
		ids := workerIDs(r, "all")
		eng.At(eng.Now().Add(start), func() {
			for _, id := range ids {
				r.DropWorker(id)
			}
			r.NoteFault()
		})
		eng.At(eng.Now().Add(end), func() {
			for _, id := range ids {
				r.RecoverWorker(id)
			}
			r.NoteFault()
		})
	}
	return nil
}
