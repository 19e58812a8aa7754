//go:build race

package tcp

// raceDetector reports a -race build. There sync.Pool.Put drops a quarter
// of what it is handed, so a reply that recycles one pooled buffer per
// pair allocates in proportion and a tight allocation budget cannot hold.
const raceDetector = true
