//go:build race

package coreutils

func init() { raceEnabled = true }
