// Package unreachedfix seeds unreached cases: a function only its own
// file and a test reference, a suppressed keeper, a method reached only
// through interface dispatch, and a standard-interface method — plus a
// plain cross-file call.
package unreachedfix

// Used is called from use.go.
func Used() int { return 1 }

// Dead is referenced only from this file and from a test.
func Dead() int { return 2 } // want unreached

var _ = Dead

// Kept has no caller the analysis can see.
//
//pclint:ignore unreached fixture: kept for a caller outside the analyzed module
func Kept() int { return 3 }

// Shape is dispatched on in use.go.
type Shape interface{ Area() int }

// Square implements Shape.
type Square struct{ N int }

// Area is named nowhere but Shape.Area's dispatch in use.go reaches it.
func (s Square) Area() int { return s.N * s.N }

// String satisfies fmt.Stringer, which fmt calls.
func (s Square) String() string { return "square" }
