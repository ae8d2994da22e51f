package harness

import (
	"strconv"
	"testing"
)

func TestExtSchedShape(t *testing.T) {
	eachSize(t, "ext-sched", func(t *testing.T, _ *size, rep *Report) {
		if len(rep.Rows) != 6 {
			t.Fatalf("rows = %d, want one per policy", len(rep.Rows))
		}
		tasks := ""
		for _, row := range rep.Rows {
			if tasks == "" {
				tasks = cell(rep, row, "tasks")
			} else if got := cell(rep, row, "tasks"); got != tasks {
				t.Errorf("task counts differ across policies: %s vs %s", got, tasks)
			}
			if cellF(t, rep, row, "makespan (s)") <= 0 {
				t.Errorf("non-positive makespan in row %v", row)
			}
		}
		// Any real policy must beat no policy would be nice, but random with
		// stealing is surprisingly strong on small DAGs; assert instead that
		// the spread stays within sanity (no policy 5x worse than the best).
		best, worst := 1e18, 0.0
		for _, row := range rep.Rows {
			v := cellF(t, rep, row, "makespan (s)")
			if v < best {
				best = v
			}
			if v > worst {
				worst = v
			}
		}
		if worst > 5*best {
			t.Errorf("scheduler spread implausible: best %v worst %v", best, worst)
		}
	})
}

func TestExtClusterShape(t *testing.T) {
	eachSize(t, "ext-cluster", func(t *testing.T, _ *size, rep *Report) {
		if len(rep.Rows) != 4 {
			t.Fatalf("rows = %d", len(rep.Rows))
		}
		oneNode := cellF(t, rep, rep.Rows[0], "GFLOP/s")
		twoGPUNodes := cellF(t, rep, rep.Rows[2], "GFLOP/s")
		if twoGPUNodes <= oneNode {
			t.Errorf("remote GPUs did not help: %v <= %v", twoGPUNodes, oneNode)
		}
		// Remote GPUs imply multi-hop staging: device-category bytes appear.
		if dev := cellF(t, rep, rep.Rows[2], "device (GB)"); dev <= cellF(t, rep, rep.Rows[0], "device (GB)") {
			t.Errorf("expected extra device-category traffic with remote GPUs, got %v", dev)
		}
	})
}

func TestExtEnergyShape(t *testing.T) {
	eachSize(t, "ext-energy", func(t *testing.T, _ *size, rep *Report) {
		if len(rep.Rows) != 4 {
			t.Fatalf("rows = %d", len(rep.Rows))
		}
		for _, row := range rep.Rows {
			e := cellF(t, rep, row, "energy (J)")
			w := cellF(t, rep, row, "avg power (W)")
			m := cellF(t, rep, row, "makespan (s)")
			if e <= 0 || w <= 0 || m <= 0 {
				t.Errorf("non-positive energy figures in row %v", row)
			}
			// Energy must equal avg power x makespan (internal consistency).
			if got, err := strconv.ParseFloat(cell(rep, row, "energy (J)"), 64); err != nil || got < w*m*0.99 || got > w*m*1.01 {
				t.Errorf("energy %v inconsistent with %v W x %v s", got, w, m)
			}
			// Sanity: a 2-GPU node draws between idle floor and TDP sum.
			if w < 150 || w > 800 {
				t.Errorf("average power %v W implausible for the modelled node", w)
			}
		}
	})
}
