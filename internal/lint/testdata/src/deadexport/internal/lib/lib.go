// Fixture for deadexport: an internal package whose exported surface is
// referenced from another package, from its own tests only, or not at all.
package lib

import "fmt"

// Used is called from the user package.
func Used() int { return 1 }

func Unused() {} // want "exported func Unused has no non-test reference"

const Limit = 3 // want "exported const Limit has no non-test reference"

var Registry = map[string]int{} // want "exported var Registry has no non-test reference"

type Orphan struct{} // want "exported type Orphan has no non-test reference"

// Point is built by the user package.
type Point struct{ X int }

func (p Point) Norm() int { return p.X } // want "exported method Point.Norm has no non-test reference"

// String satisfies fmt.Stringer, so it counts as referenced.
func (p Point) String() string { return fmt.Sprint(p.X) }

func TestOnly() int { return 2 } // want "exported func TestOnly has no non-test reference"

//lint:allow deadexport fixture exercises the suppression
func Kept() {}

func unexported() {}
