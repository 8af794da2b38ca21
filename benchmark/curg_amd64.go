package main

// curG returns the address of the calling goroutine's runtime
// descriptor: equal for two calls exactly when they run on the same
// live goroutine. It costs a couple of nanoseconds, where parsing a
// goroutine id out of runtime.Stack costs tens of microseconds.
func curG() uintptr

// haveCurG reports whether curG identifies goroutines on this
// platform.
const haveCurG = true
