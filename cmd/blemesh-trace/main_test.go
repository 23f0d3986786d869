package main

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// TestUnwritableStdoutFails runs main with stdout on /dev/full: output that
// cannot be written must fail the run with exit status 1.
func TestUnwritableStdoutFails(t *testing.T) {
	if os.Getenv("BLEMESH_TEST_MAIN") == "1" {
		os.Args = []string{"blemesh-trace", "-minutes", "1"}
		main()
		return
	}
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full:", err)
	}
	defer full.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnwritableStdoutFails$")
	cmd.Env = append(os.Environ(), "BLEMESH_TEST_MAIN=1")
	cmd.Stdout = full
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("blemesh-trace -minutes 1 > /dev/full: %v, want exit status 1", err)
	}
}
