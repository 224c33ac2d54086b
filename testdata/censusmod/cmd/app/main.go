// Command app is a program of the fixture module.
package main

import "fixture"

func main() { println(fixture.Used()) }
