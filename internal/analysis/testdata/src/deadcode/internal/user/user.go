// Package user references lib's live names from non-test code.
package user

import (
	"encoding/json"
	"fmt"

	"fixture/deadcode/internal/lib"
)

func Run() {
	var c lib.Counter
	inc, double := c.Inc, lib.Double
	inc()
	total := double(lib.Total([]lib.Shape{lib.Square{Side: 2}}))
	js, _ := json.Marshal(lib.Name("n"))
	var err error = lib.Fault{}
	fmt.Println(lib.Name("n"), string(js), err, total, c.N)
}
