package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestStrandedRunExitsWithOneLine re-runs the test binary as ompss-run
// on a configuration whose only GPU drops while GPU-only tasks are
// queued: the command must exit 1 with a single line naming the
// stranded task types and the down device, not a goroutine dump.
func TestStrandedRunExitsWithOneLine(t *testing.T) {
	if os.Getenv("OMPSS_RUN_AS_MAIN") == "1" {
		os.Args = []string{"ompss-run", "-app", "pbpi", "-variant", "gpu", "-sched", "dep", "-gpus", "1",
			"-generations", "10", "-chaos", "gpu0:drop@40%"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStrandedRunExitsWithOneLine$")
	cmd.Env = append(os.Environ(), "OMPSS_RUN_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1; output:\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 1 {
		t.Fatalf("want one line of output, got %d:\n%s", len(lines), out)
	}
	for _, want := range []string{"rt: stranded", "pbpi_loop", "gpu-0"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("output %q does not mention %q", lines[0], want)
		}
	}
}
