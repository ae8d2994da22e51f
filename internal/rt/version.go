// Package rt is the task runtime core: the Go analogue of the Nanos++
// runtime that OmpSs programs execute on. It owns task types and their
// versions (the `implements` clause), task submission with dataflow
// dependences, worker threads devoted to devices, data staging through the
// memory directory, taskwait synchronization, and the scheduler plug-in
// interface the paper's versioning scheduler implements.
package rt

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/perfmodel"
)

// ExecContext is passed to a version's real Go implementation when the
// runtime executes it (RealCompute mode). The computation runs at the
// simulated instant the task starts; its virtual duration comes from the
// version's performance model, standing in for the hardware the paper
// measured.
type ExecContext struct {
	Task    *Task
	Version *Version
	Worker  *Worker
}

// Version is one implementation of a task type: the runtime-visible
// artifact of a `#pragma omp target device(<kind>) implements(<main>)`
// annotation. The first version added to a TaskType is the main
// implementation; all versions are treated equally by the versioning
// scheduler, exactly as Section IV-A specifies.
//
// A version may target several device kinds at once ("the same
// implementation can be targeted to more than one device (provided that
// all devices specified in the device clause are able to run the code)",
// Section IV-A): Devices holds them all and Device is the first.
type Version struct {
	// Name identifies the implementation (e.g. "matmul_tile_cublas").
	Name string
	// Device is the primary device kind (the first of Devices).
	Device machine.DeviceKind
	// Devices are all device kinds this implementation can run on.
	Devices []machine.DeviceKind
	// Model estimates the execution time on that device; it stands in
	// for the real kernel.
	Model perfmodel.Model
	// Fn optionally carries a real Go implementation, executed when the
	// runtime runs in RealCompute mode (used to verify numerics).
	Fn func(*ExecContext)

	taskType *TaskType
	runs     int // completed instances (Runtime.VersionCounts)
}

// RunsOn reports whether the implementation can execute on the device
// kind.
func (v *Version) RunsOn(kind machine.DeviceKind) bool {
	for _, d := range v.Devices {
		if d == kind {
			return true
		}
	}
	return false
}

// Type returns the owning task type.
func (v *Version) Type() *TaskType { return v.taskType }

func (v *Version) String() string {
	return fmt.Sprintf("%s[%s]", v.Name, v.Device)
}

// TaskType is a set of versions implementing the same task (the paper's
// TaskVersionSet identity). The compiler builds this structure from the
// `implements` annotations; here the application registers versions
// explicitly.
type TaskType struct {
	Name     string
	Versions []*Version

	rt *Runtime

	// Scheduling-decision caches, rebuilt lazily after AddVersion: version
	// sets rarely change after registration but are consulted on every
	// submit and every scheduling decision, so the hot paths must not
	// re-derive them (or allocate) per call.
	vfor     [][]*Version // versions runnable per device kind; nil = stale
	names    []string     // version names in registration order
	runnable bool         // some configured worker can run some version
}

// invalidate drops the decision caches; called whenever Versions changes.
func (tt *TaskType) invalidate() {
	tt.vfor = nil
	tt.names = nil
	tt.runnable = false
}

// AddVersion registers an implementation targeting one device kind; the
// first version added becomes the main implementation. It returns the
// registered version.
func (tt *TaskType) AddVersion(name string, device machine.DeviceKind, model perfmodel.Model, fn func(*ExecContext)) *Version {
	return tt.AddMultiDeviceVersion(name, []machine.DeviceKind{device}, model, fn)
}

// AddMultiDeviceVersion registers an implementation that can run on
// several device kinds (a multi-entry device clause, Section IV-A).
func (tt *TaskType) AddMultiDeviceVersion(name string, devices []machine.DeviceKind, model perfmodel.Model, fn func(*ExecContext)) *Version {
	if model == nil {
		panic(fmt.Sprintf("rt: version %q of %q has no performance model", name, tt.Name))
	}
	if len(devices) == 0 {
		panic(fmt.Sprintf("rt: version %q of %q targets no devices", name, tt.Name))
	}
	seen := make(map[machine.DeviceKind]bool, len(devices))
	for _, d := range devices {
		if seen[d] {
			panic(fmt.Sprintf("rt: version %q of %q repeats device %s", name, tt.Name, d))
		}
		seen[d] = true
	}
	for _, v := range tt.Versions {
		if v.Name == name {
			panic(fmt.Sprintf("rt: duplicate version %q of task %q", name, tt.Name))
		}
	}
	v := &Version{
		Name:     name,
		Device:   devices[0],
		Devices:  append([]machine.DeviceKind(nil), devices...),
		Model:    model,
		Fn:       fn,
		taskType: tt,
	}
	tt.Versions = append(tt.Versions, v)
	tt.invalidate()
	return v
}

// Main returns the main implementation.
func (tt *TaskType) Main() *Version {
	if len(tt.Versions) == 0 {
		panic(fmt.Sprintf("rt: task %q has no versions", tt.Name))
	}
	return tt.Versions[0]
}

// VersionsFor returns the versions runnable on the given device kind.
// The slice is cached and shared; do not mutate.
func (tt *TaskType) VersionsFor(kind machine.DeviceKind) []*Version {
	if tt.vfor == nil {
		tt.vfor = make([][]*Version, machine.NumDeviceKinds)
		for _, v := range tt.Versions {
			for _, d := range v.Devices {
				tt.vfor[d] = append(tt.vfor[d], v)
			}
		}
	}
	if int(kind) >= len(tt.vfor) {
		return nil
	}
	return tt.vfor[kind]
}

// HasVersionFor reports whether any version targets the device kind.
func (tt *TaskType) HasVersionFor(kind machine.DeviceKind) bool {
	return len(tt.VersionsFor(kind)) > 0
}

// VersionNames returns the version names in registration order. The slice
// is cached and shared; do not mutate.
func (tt *TaskType) VersionNames() []string {
	if tt.names == nil {
		tt.names = make([]string, len(tt.Versions))
		for i, v := range tt.Versions {
			tt.names[i] = v.Name
		}
	}
	return tt.names
}
