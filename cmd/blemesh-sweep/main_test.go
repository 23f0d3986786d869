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
		os.Args = []string{"blemesh-sweep", "-scale", "0.01", "-producers", "1000", "-intervals", "75"}
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
		t.Fatalf("blemesh-sweep -scale 0.01 -producers 1000 -intervals 75 > /dev/full: %v, want exit status 1", err)
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

// A grid value given twice would run the same cells again; SweepText's map
// then folds their CSV rows into one. The command refuses the repeat.
func TestRepeatedGridValueRejected(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-producers 1000,1000 -intervals 75", "producer interval 1000 ms given twice"},
		{"-producers 1000 -intervals 75,25,75", `interval config "75" given twice`},
	} {
		args := append([]string{"blemesh-sweep", "-scale", "0.001"}, strings.Fields(tc.args)...)
		if code, stderr := exitOf(t, args...); code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 naming the value (%q)", tc.args, code, stderr, tc.want)
		}
	}
}

// With seed 1, two geo nodes fall out of each other's range: no producer,
// nothing sent, and a perfect 0/0 delivery the run must not report.
func TestNoProducerTopologyRejected(t *testing.T) {
	code, stderr := exitOf(t, "blemesh-sweep", "-scale", "0.001", "-producers", "1000", "-intervals", "75", "-topo", "geo", "-nodes", "2")
	if code != 2 || !strings.Contains(stderr, "topology geo-2 has no producer") {
		t.Fatalf("exit %d, stderr %q; want exit 2 and the no-producer message", code, stderr)
	}
}
