package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
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

// TestMain runs main instead of the tests when BLEMESH_MAIN_ARGS holds a
// command line (newline-separated), as exitOf sets it for a child process.
func TestMain(m *testing.M) {
	if args := os.Getenv("BLEMESH_MAIN_ARGS"); args != "" {
		os.Args = strings.Split(args, "\n")
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// exitOf runs main with args in a child process and returns its exit status
// and standard error.
func exitOf(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "BLEMESH_MAIN_ARGS="+strings.Join(args, "\n"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// With seed 1, two geo nodes fall out of each other's range: no producer,
// nothing sent, and a perfect 0/0 delivery the run must not report.
func TestNoProducerTopologyRejected(t *testing.T) {
	code, stderr := exitOf(t, "blemesh-trace", "-topo", "geo", "-nodes", "2", "-minutes", "1")
	if code != 2 || !strings.Contains(stderr, "topology geo-2 has no producer") {
		t.Fatalf("exit %d, stderr %q; want exit 2 and the no-producer message", code, stderr)
	}
}
