// Package main is the unreached analyzer's fixture: a program whose
// main reaches some of the package's functions and not others. The
// analyzer runs with this package as both its root and its scope.
package main

import "fmt"

func main() {
	f := value{}.method // a method value
	f()
	fmt.Println(stringer{}, &ptrStringer{}) // String is called through fmt.Stringer
	_ = apply([]int{1, 2}, double)          // a generic function and a function value
	_ = box[int]{}.get()                    // a method of a generic type
	var o outer
	o.promoted()   // promoted from the embedded inner
	fmt.Println(o) // inner.String, promoted into outer's method set
}

var initialized = fromVarInit()

func init() { fromInit() }

func fromVarInit() int { return 1 }

func fromInit() {}

type value struct{}

func (value) method() {}

type stringer struct{}

func (stringer) String() string { return "stringer" }

func (stringer) Unasked() {} // want `stringer\).Unasked is reached from no program's main`

type ptrStringer struct{}

func (*ptrStringer) String() string { return "ptrStringer" }

func apply[T any](xs []T, f func(T) T) []T {
	for i, x := range xs {
		xs[i] = f(x)
	}
	return xs
}

func double(x int) int { return 2 * x }

type box[T any] struct{ v T }

func (b box[T]) get() T { return b.v }

type inner struct{}

func (inner) promoted() {}

func (inner) String() string { return "inner" }

type outer struct{ inner }

// testOnly is called by unreached_test.go alone, which is no root.
func testOnly() {} // want `main.testOnly is reached from no program's main`

// deadHead calls deadTail and nothing calls deadHead: a call from
// dead code reaches nothing.
func deadHead() { deadTail() } // want `main.deadHead is reached`

func deadTail() {} // want `main.deadTail is reached`

//lsm:keep -- read by unreached_test.go
func kept() {}

//lsm:keep // want `//lsm:keep needs a reason`
func keptWithoutReason() {}
