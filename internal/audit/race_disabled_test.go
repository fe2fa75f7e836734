//go:build !race

package audit

// raceEnabled reports that the race detector is on; sync.Pool deliberately
// drops items under -race, so allocation and heap assertions are skipped
// there.
const raceEnabled = false
