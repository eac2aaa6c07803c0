//go:build race

package dp_test

// raceEnabled trims the differential sweeps when the race detector is on:
// the map-based reference oracle runs ~8x slower under race and contributes
// nothing to race coverage (like the search it checks, it is single-threaded
// by construction).
const raceEnabled = true
