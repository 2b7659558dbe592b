//go:build !amd64

package main

// aesni is not probed off amd64.
func aesni() string { return "unknown" }
