// Package lib declares a name per case; its exported names are in scope.
package lib

import "strconv"

type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

func Total(shapes []Shape) int { return shapes[0].Area() }

// Live through fmt.Stringer, json.Marshaler (user imports them) and error.
type Name string

func (n Name) String() string { return string(n) }

func (n Name) MarshalJSON() ([]byte, error) { return []byte(strconv.Quote(string(n))), nil }

type Fault struct{}

func (Fault) Error() string { return "fault" }

// user takes a method value and a func value; tool calls Box[int].Get.
type Counter struct{ N int }

func (c *Counter) Inc() { c.N++ }

func Double(x int) int { return 2 * x }

type Box[T any] struct{ V T }

func (b Box[T]) Get() T { return b.V }

func MainOnly() int { return 1 } // referenced only from a package main

func CrossTest() int { return 2 } // referenced only from user's test

func OwnTest() int { return 3 } // want "func OwnTest"

func helper() int { return 4 } // want "func helper"

func countdown(n int) int { // want "func countdown"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// Only ghost's own method, live as a fmt.Stringer, references it.
type ghost struct{} // want "type ghost"

func (ghost) String() string { return "ghost" }

var unread = 5 // want "var unread"

const Unused = 6 // constants are out of scope
