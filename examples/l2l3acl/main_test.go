package main

import (
	"os"
	"strings"
	"testing"
)

// TestOutput holds the example to its checked-in output: the run is
// deterministic, so any difference is a change in what the datapath did.
// After an intended change, regenerate it with
//
//	go run ./examples/l2l3acl > examples/l2l3acl/testdata/output.txt
func TestOutput(t *testing.T) {
	var got strings.Builder
	run(&got)
	want, err := os.ReadFile("testdata/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("output differs from testdata/output.txt\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
