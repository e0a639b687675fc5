//go:build amd64 || arm64

package main

// getg returns the address of the calling goroutine's runtime descriptor.
// It identifies the goroutine for as long as the goroutine runs.
func getg() uintptr

// gid identifies the calling goroutine. Spans are opened and closed on
// one goroutine, so the descriptor's address serves as the key of its
// open-span stack.
func gid() int64 { return int64(getg()) }
