//go:build !race

package controlplane

const RaceEnabled = false
