package ompss

import (
	"fmt"
	"io"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Analysis-side re-exports: everything a user needs to postprocess a run
// (energy accounting, Paraver export, critical path, Gantt timeline)
// without importing internal packages.
type (
	// EnergyModel maps devices and links to power draws.
	EnergyModel = energy.Model
	// EnergyReport is the integrated energy account of one run.
	EnergyReport = energy.Report
	// DevicePower is a device's busy/idle draw.
	DevicePower = energy.DevicePower
	// CriticalPath is the heaviest dependence chain of a run.
	CriticalPath = stats.CriticalPath
	// Summary is the per-worker / per-type derived statistics of a run.
	Summary = stats.Summary
)

// traced returns the run's tracer, or an error naming the opt-out when
// the runtime was built with Config.NoTrace.
func (r *Runtime) traced(op string) (*trace.Tracer, error) {
	if tr := r.Tracer(); tr != nil {
		return tr, nil
	}
	return nil, fmt.Errorf("ompss: %s needs a trace, but the runtime was built with Config.NoTrace", op)
}

// mustTrace is traced for the analyses without an error result: they
// panic with that message instead of dereferencing a nil tracer.
func (r *Runtime) mustTrace(op string) *trace.Tracer {
	tr, err := r.traced(op)
	if err != nil {
		panic(err.Error())
	}
	return tr
}

// MinoTauroPower returns the power model of the paper's evaluation node
// (Xeon E5649 cores, Tesla M2090 GPUs).
func MinoTauroPower() *EnergyModel { return energy.MinoTauro() }

// Cluster builds a multi-node machine: a MinoTauro node plus remoteNodes
// nodes of coresPerNode SMP cores each, connected by InfiniBand. Pass it
// as Config.Machine and size SMPWorkers up to cores+remoteNodes*coresPerNode.
func Cluster(cores, gpus, remoteNodes, coresPerNode int) *Machine {
	return machine.Cluster(cores, gpus, remoteNodes, coresPerNode)
}

// ClusterGPU is Cluster with gpusPerNode GPUs on every remote node; their
// data stages over two hops (InfiniBand to the node, then PCIe).
func ClusterGPU(cores, gpus, remoteNodes, coresPerNode, gpusPerNode int) *Machine {
	return machine.ClusterGPU(cores, gpus, remoteNodes, coresPerNode, gpusPerNode)
}

// EnergyReport integrates a power model over the run so far. A nil model
// selects MinoTauroPower.
func (r *Runtime) EnergyReport(m *EnergyModel) *EnergyReport {
	if m == nil {
		m = MinoTauroPower()
	}
	return energy.Compute(r.mustTrace("EnergyReport"), r.Machine(), m, r.Now().Duration())
}

// WriteParaver writes the run's trace in Paraver .prv format (BSC tool
// chain; view with wxparaver).
func (r *Runtime) WriteParaver(w io.Writer) error {
	tr, err := r.traced("WriteParaver")
	if err != nil {
		return err
	}
	return tr.WriteParaver(w, len(r.Workers()))
}

// WriteParaverPCF writes the companion .pcf naming file for WriteParaver.
func (r *Runtime) WriteParaverPCF(w io.Writer) error {
	tr, err := r.traced("WriteParaverPCF")
	if err != nil {
		return err
	}
	return tr.WriteParaverPCF(w)
}

// CriticalPath computes the heaviest dependence chain of the run so far.
func (r *Runtime) CriticalPath() *CriticalPath {
	return stats.ComputeCriticalPath(r.mustTrace("CriticalPath"))
}

// Timeline renders an ASCII Gantt chart of the run (one row per worker,
// one letter per task version).
func (r *Runtime) Timeline(width int) string {
	return stats.Timeline(r.mustTrace("Timeline"), width)
}

// Summarize derives per-worker and per-type statistics from the run.
func (r *Runtime) Summarize() *Summary {
	return stats.Summarize(r.mustTrace("Summarize"))
}

// ValidateTrace runs the independent trace-consistency oracle and returns
// every violation found (empty means consistent). An untraced runtime
// reports the missing trace as its one violation.
func (r *Runtime) ValidateTrace() []string {
	tr, err := r.traced("ValidateTrace")
	if err != nil {
		return []string{err.Error()}
	}
	return stats.Validate(tr)
}
