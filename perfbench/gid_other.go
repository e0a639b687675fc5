//go:build !amd64 && !arm64

package main

import (
	"bytes"
	"runtime"
	"strconv"
)

// gid returns the calling goroutine's ID from its stack header (slow: it
// walks the stack; the amd64 and arm64 builds read the goroutine
// descriptor instead).
func gid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	n, _ := strconv.ParseInt(string(b), 10, 64)
	return n
}
