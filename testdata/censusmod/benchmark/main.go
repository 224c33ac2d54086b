// Command benchmark is the fixture's reader-only harness.
package main

import "fixture/internal/lib"

func main() { println(lib.BenchOnly()) }
