package user

import (
	"testing"

	"fixture/deadcode/internal/lib"
)

func TestCrossTest(t *testing.T) {
	if lib.CrossTest() != 2 {
		t.Fatal("CrossTest")
	}
}
