//go:build race

package softqos

// The census is a static analysis with nothing for the race detector to
// watch, and -race slows its source type-check eightfold (3 s to 23 s):
// race runs leave it to `make lint-api`, which runs it without -race.
func init() { raceDetector = true }
