// Package fixture is the root package of the census test's module.
package fixture

import "fixture/internal/lib"

// Used is root API that a program calls.
func Used() string { return lib.Used() }

// Unreached is root API that no program calls: reported, not gated.
func Unreached() {}
