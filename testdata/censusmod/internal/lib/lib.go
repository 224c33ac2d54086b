// Package lib holds each kind of func the census must sort.
package lib

import "fmt"

// Used is reached from the root package's API.
func Used() string { return fmt.Sprint(T{}) }

// Unused is exported and uncalled: flagged.
func Unused() int { return helper() }

// helper is reached only from Unused: flagged too.
func helper() int { return 1 }

// BenchOnly is called only by the benchmark harness: not flagged.
func BenchOnly() int { return 2 }

// T satisfies fmt.Stringer.
type T struct{}

// String makes T a fmt.Stringer: not flagged although nothing calls it.
func (T) String() string { return "t" }

// Unused is a method nothing calls: flagged.
func (T) Unused() {}

// wrapped is reached through the package-level var below.
func wrapped() {}

var _ = wrapped

// Err is a custom error whose Unwrap the errors package calls.
type Err struct{ err error }

func (e *Err) Error() string { return e.err.Error() }
func (e *Err) Unwrap() error { return e.err }
