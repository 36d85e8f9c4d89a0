// Package withtests is a loader-hardening fixture: its non-test file
// is clean, and its wall-clock violations live only in _test.go files.
// Analyzers must see them exactly when the loader's IncludeTests flag
// is set (cdvet -tests), and never otherwise.
package withtests

// Elapsed is pure simulated arithmetic — no findings here.
func Elapsed(startTick, endTick int) int {
	return endTick - startTick
}
