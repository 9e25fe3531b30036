// Package tagged is the loader fixture for build constraints: Impl has a
// body-less declaration here, as an assembly-backed function does, and a
// second definition in a file no build selects.
package tagged

// Impl is implemented elsewhere.
func Impl() int
