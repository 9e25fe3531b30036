//go:build never

package tagged

// Impl would collide with tagged.go's declaration if this file were loaded.
func Impl() int { return 0 }
