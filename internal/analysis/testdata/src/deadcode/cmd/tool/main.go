// Command tool's references count; its own declarations are out of scope.
package main

import (
	"fixture/deadcode/internal/lib"
	"fixture/deadcode/internal/user"
)

func unusedInMain() {}

func main() {
	user.Run()
	println(lib.MainOnly(), lib.Box[int]{V: 1}.Get())
}
