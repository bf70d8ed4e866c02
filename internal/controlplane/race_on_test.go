//go:build race

package controlplane

// RaceEnabled reports whether the race detector is compiled in; slow
// replay-comparison tests skip under it to keep the package inside the
// CI time budget (they still run in the plain `go test` pass). It is
// exported for the package's external tests, which drive chaos runs.
const RaceEnabled = true
