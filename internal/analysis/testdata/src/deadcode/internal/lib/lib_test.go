package lib

import "testing"

func TestOwnTest(t *testing.T) {
	if OwnTest() != 3 {
		t.Fatal("OwnTest")
	}
}
