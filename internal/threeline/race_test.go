//go:build race

package threeline

func init() { raceEnabled = true }
