//go:build !amd64

package main

// curG is unavailable on this platform: the traced run then records
// every codec call as a background span.
func curG() uintptr { return 0 }

const haveCurG = false
