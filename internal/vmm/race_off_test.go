//go:build !race

package vmm

const raceEnabled = false
