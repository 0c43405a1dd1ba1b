//go:build race

package image

func init() { raceEnabled = true }
