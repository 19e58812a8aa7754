//go:build !race

package tcp

const raceDetector = false
